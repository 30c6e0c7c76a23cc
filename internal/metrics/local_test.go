package metrics

import (
	"math/rand"
	"testing"
)

// TestLocalFlushMatchesDirectCounting drives one random operation sequence
// into (a) a Collector charged per operation and (b) a Local flushed at
// random batch boundaries, and asserts the final snapshots are byte
// identical.  This is the contract the join hot path relies on: batching the
// counter updates must not change any reported number.
func TestLocalFlushMatchesDirectCounting(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	direct := NewCollector()
	batched := NewCollector()
	var local Local

	for op := 0; op < 10000; op++ {
		n := int64(rng.Intn(5) + 1)
		switch rng.Intn(8) {
		case 0:
			direct.AddComparisons(n)
			local.AddComparisons(n)
		case 1:
			direct.AddSortComparisons(n)
			local.AddSortComparisons(n)
		case 2:
			direct.AddDiskRead(n * 1024)
			local.DiskReads++
			local.BytesRead += n * 1024
		case 3:
			direct.AddDiskWrite(n * 1024)
			local.DiskWrites++
			local.BytesWritten += n * 1024
		case 4:
			direct.AddBufferHit()
			local.BufferHits++
		case 5:
			direct.AddPathHit()
			local.PathHits++
		case 6:
			direct.AddNodeSort()
			local.AddNodeSort()
		case 7:
			direct.AddPairTested()
			local.AddPairTested()
			direct.AddPairReported()
			local.AddPairReported()
		}
		if rng.Intn(13) == 0 {
			local.FlushTo(batched)
		}
	}
	local.FlushTo(batched)

	if got, want := batched.Snapshot(), direct.Snapshot(); got != want {
		t.Fatalf("batched flushing drifted from per-op counting:\n got  %#v\n want %#v", got, want)
	}
	if (local != Local{}) {
		t.Fatalf("flush must zero the local counter, got %#v", local)
	}
}

func TestLocalNilSafety(t *testing.T) {
	var l *Local
	l.AddComparisons(1)
	l.AddSortComparisons(1)
	l.AddNodeSort()
	l.AddPairTested()
	l.AddPairReported()
	l.Reset()
	l.FlushTo(nil)
	l.FlushTo(NewCollector())
	if l.Snapshot() != (Snapshot{}) {
		t.Fatal("nil Local must snapshot to zero")
	}
}
