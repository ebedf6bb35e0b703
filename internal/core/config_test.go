package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/locks"
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
		{"unknown lock", Config{Lock: locks.Kind(99)}, "Lock"},
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

// TestConfigValidateDurability covers the durability options with the
// sentinel errors callers are expected to branch on (errors.Is).
func TestConfigValidateDurability(t *testing.T) {
	type recorder struct{ WALPolicy }
	cases := []struct {
		name string
		cfg  Config
		want error // sentinel matched with errors.Is; nil means valid
	}{
		{
			name: "nil durability",
			cfg:  Config{},
		},
		{
			name: "durability struct present but WAL off",
			cfg:  Config{Durability: &DurabilityConfig{Dir: "/tmp/q"}},
		},
		{
			name: "valid durable config",
			cfg: Config{Durability: &DurabilityConfig{
				WAL: true, Dir: "/tmp/q", GroupCommit: time.Millisecond, SnapshotBytes: 1 << 20,
			}},
		},
		{
			name: "missing dir",
			cfg: Config{Durability: &DurabilityConfig{
				WAL: true, GroupCommit: time.Millisecond,
			}},
			want: ErrDurabilityDir,
		},
		{
			name: "zero group commit",
			cfg: Config{Durability: &DurabilityConfig{
				WAL: true, Dir: "/tmp/q",
			}},
			want: ErrDurabilityGroupCommit,
		},
		{
			name: "negative group commit",
			cfg: Config{Durability: &DurabilityConfig{
				WAL: true, Dir: "/tmp/q", GroupCommit: -time.Millisecond,
			}},
			want: ErrDurabilityGroupCommit,
		},
		{
			name: "snapshot without WAL",
			cfg: Config{Durability: &DurabilityConfig{
				Dir: "/tmp/q", SnapshotBytes: 1 << 20,
			}},
			want: ErrSnapshotWithoutWAL,
		},
		{
			name: "owned log and external policy both set",
			cfg: Config{
				Durability: &DurabilityConfig{WAL: true, Dir: "/tmp/q", GroupCommit: time.Millisecond},
				WAL:        recorder{},
			},
			want: ErrDurabilityConflict,
		},
		{
			name: "external policy alone is fine",
			cfg:  Config{WAL: recorder{}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want errors.Is(%v)", err, tc.want)
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
