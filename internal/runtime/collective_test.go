package runtime

import (
	"bytes"
	"fmt"
	"testing"
)

// patterned builds a deterministic payload of n bytes whose content
// encodes both the seed and the position, so truncation, reordering, or
// chunk-boundary corruption is detectable.
func patterned(seed, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(seed*31 + i*7)
	}
	return b
}

// TestCollectiveOversizedPayloads drives broadcasts, all-reduces, and
// all-gathers with payloads at exactly the slot capacity, one byte over
// it, and several multiples of it. Before the chunked slot protocol the
// cap+1 case panicked in sendSlot.
func TestCollectiveOversizedPayloads(t *testing.T) {
	const slotBytes = 64
	cap := slotBytes - 4 // usable payload per chunk after the u32 header
	sizes := []int{0, 1, cap - 1, cap, cap + 1, 2 * cap, 4 * slotBytes, 4*slotBytes + 13}
	for _, tr := range transports {
		tr := tr
		t.Run(string(tr), func(t *testing.T) {
			cfg := Config{PEs: 4, WorkersPerPE: 1, Lamellae: tr, CollectiveSlotBytes: slotBytes}
			err := Run(cfg, func(w *World) {
				team := w.Team()
				for _, n := range sizes {
					// Broadcast from every root so both tree shapes and slot
					// reuse see the oversized payload.
					for root := 0; root < team.Size(); root++ {
						var mine []byte
						if team.Rank() == root {
							mine = patterned(root+n, n)
						}
						got := team.BroadcastBytes(root, mine)
						if !bytes.Equal(got, patterned(root+n, n)) {
							panic(fmt.Sprintf("PE%d: broadcast size %d root %d corrupted (got %d bytes)",
								w.MyPE(), n, root, len(got)))
						}
					}
					// All-reduce with a byte-wise XOR combine: order-independent
					// and sensitive to any lost or duplicated chunk.
					mine := patterned(team.Rank()+n, n)
					got := team.AllReduceBytes(mine, func(a, b []byte) []byte {
						out := make([]byte, len(a))
						for i := range a {
							out[i] = a[i] ^ b[i]
						}
						return out
					})
					want := make([]byte, n)
					for r := 0; r < team.Size(); r++ {
						p := patterned(r+n, n)
						for i := range want {
							want[i] ^= p[i]
						}
					}
					if !bytes.Equal(got, want) {
						panic(fmt.Sprintf("PE%d: allreduce size %d corrupted", w.MyPE(), n))
					}
				}
				// AllGather where the combined payload far exceeds one slot.
				per := 3 * slotBytes
				gath := team.AllGatherBytes(patterned(team.Rank(), per))
				for r, b := range gath {
					if !bytes.Equal(b, patterned(r, per)) {
						panic(fmt.Sprintf("PE%d: allgather rank %d corrupted (%d bytes)", w.MyPE(), r, len(b)))
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCollectiveSlotBytesValidated verifies that configs whose slot size
// cannot even hold the chunk header are rejected up front instead of
// dividing by zero in the chunking loop. The same validation rejects a
// request for the removed adaptive tuner (TuneMode other than "" or
// "off") rather than silently ignoring it.
func TestCollectiveSlotBytesValidated(t *testing.T) {
	err := Run(Config{PEs: 2, Lamellae: LamellaeShmem, CollectiveSlotBytes: 4}, func(w *World) {})
	if err == nil {
		t.Fatal("expected config validation error for CollectiveSlotBytes=4")
	}
	for mode, ok := range map[string]bool{"": true, "off": true, "on": false, "observe": false} {
		err := Config{PEs: 2, Lamellae: LamellaeShmem, TuneMode: mode}.withDefaults().validate()
		if ok && err != nil {
			t.Errorf("TuneMode %q rejected: %v", mode, err)
		}
		if !ok && err == nil {
			t.Errorf("TuneMode %q accepted; want a validation error", mode)
		}
	}
}
