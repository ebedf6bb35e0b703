package core

import (
	"strings"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error; "" means valid
	}{
		{"default", DefaultConfig(), ""},
		{"zero value", Config{}, ""},
		{"negative batch", Config{Batch: -1}, "Batch"},
		{"negative targetLen", Config{TargetLen: -8}, "TargetLen"},
		{"unknown lock", Config{Lock: LockKind(99)}, "Lock"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error mentioning %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %q, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("New accepted a negative Batch")
		}
	}()
	New[int](Config{Batch: -1})
}
