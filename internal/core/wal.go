package core

import "time"

// DurabilityConfig describes a write-ahead log for Config.Durability. The
// queue in this package has no log: sharded.Open reads the field, opens
// the log in Dir (recovering whatever Dir holds) and logs every operation
// of the front-end through it, and Open here refuses a config that sets
// it. A durable single queue is a one-shard sharded queue. For the
// protocol itself see package repro/internal/wal.
type DurabilityConfig struct {
	// WAL enables the write-ahead log. (The struct being non-nil does not
	// by itself enable anything, so a config template can carry the
	// directory layout with durability switched off.)
	WAL bool
	// Dir is the durability directory. Required when WAL is set.
	Dir string
	// GroupCommit is the group-commit fsync interval. Required when WAL
	// is set; wal.DefaultGroupCommit is the recommended value.
	GroupCommit time.Duration
	// SnapshotBytes, when > 0, compacts the log with an online snapshot
	// whenever it grows past this many bytes, reading the log at most this
	// many bytes at a time (wal.Options.SnapshotBytes). Requires WAL.
	SnapshotBytes int64
}
