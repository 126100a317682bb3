package main

import (
	"strings"
	"testing"
	"time"
)

// cleanHistory runs a short uniform-tcp load and returns its committed
// history, which must pass the check before anything is planted in it.
func cleanHistory(t *testing.T) []txRec {
	t.Helper()
	sp, _ := specByName("uniform-tcp")
	c, err := build(sp, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	p, err := runPhase(c, sp, 1, 100*time.Millisecond, time.Second, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.problems) > 0 {
		t.Fatalf("unplanted run failed its check: %v", p.problems)
	}
	var txs []txRec
	for _, a := range p.apps {
		txs = append(txs, a.txs...)
	}
	if len(txs) < 10 {
		t.Fatalf("only %d transactions committed", len(txs))
	}
	if err := checkHistory(txs); err != nil {
		t.Fatalf("clean history rejected: %v", err)
	}
	return txs
}

// writeOf finds a committed transaction that overwrote some version, and
// the index of that write.
func writeOf(t *testing.T, txs []txRec, from int) (int, int) {
	t.Helper()
	for i := from; i < len(txs); i++ {
		for j, o := range txs[i].ops {
			if o.wrote {
				return i, j
			}
		}
	}
	t.Fatal("no write in the history")
	return 0, 0
}

func clone(txs []txRec) []txRec {
	out := make([]txRec, len(txs))
	for i, t := range txs {
		out[i] = t
		out[i].ops = append([]op(nil), t.ops...)
	}
	return out
}

func TestPlantedCorruptionsFailTheCheck(t *testing.T) {
	txs := cleanHistory(t)

	t.Run("lost update", func(t *testing.T) {
		h := clone(txs)
		w, j := writeOf(t, h, 0)
		// A later transaction overwrites the same version again.
		other := len(h) - 1
		if other == w {
			other--
		}
		h[other].ops = append(h[other].ops, op{obj: h[w].ops[j].obj, read: h[w].ops[j].read, wrote: true})
		if err := checkHistory(h); err == nil {
			t.Fatal("planted lost update passed the check")
		}
	})

	t.Run("stale read", func(t *testing.T) {
		h := clone(txs)
		w, j := writeOf(t, h, 0)
		// A transaction that began after the overwrite committed still
		// observes the overwritten version.
		for r := range h {
			if h[r].begin > h[w].end {
				h[r].ops = append(h[r].ops, op{obj: h[w].ops[j].obj, read: h[w].ops[j].read})
				err := checkHistory(h)
				if err == nil || !strings.Contains(err.Error(), "stale read") {
					t.Fatalf("planted stale read: got %v", err)
				}
				return
			}
		}
		t.Fatal("no transaction began after the write committed")
	})

	t.Run("read of uncommitted version", func(t *testing.T) {
		h := clone(txs)
		h[0].ops = append(h[0].ops, op{obj: 7, read: versionOf(0, 1<<40)})
		if err := checkHistory(h); err == nil {
			t.Fatal("read of a version no committed transaction wrote passed the check")
		}
	})
}

func TestPlantedWrongByteFailsTheCheck(t *testing.T) {
	sp, _ := specByName("cached-read")
	for _, plant := range []bool{false, true} {
		c, err := build(sp, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if plant {
			// Flip one byte of one object of the read set on the volume,
			// behind the expectation kept at set-up.
			pg, _ := c.vol.PeekPage(c.objs[0].PageID())
			pg.Objects[3][17] ^= 0xFF
			if err := c.vol.WritePage(pg); err != nil {
				t.Fatal(err)
			}
		}
		p, err := runPhase(c, sp, 1, 100*time.Millisecond, 500*time.Millisecond, false)
		if err != nil {
			t.Fatal(err)
		}
		if failed := len(p.problems) > 0; failed != plant {
			t.Fatalf("planted=%v: problems %v", plant, p.problems)
		}
	}
}

func TestTagRoundTrip(t *testing.T) {
	b := encodeTag(1, 42)
	if v, ok := decodeTag(b, 2); !ok || v != versionOf(1, 42) {
		t.Fatalf("decode(encode) = %v, %v", v, ok)
	}
	for i := range b {
		bad := append([]byte(nil), b...)
		bad[i] ^= 0xFF
		if v, ok := decodeTag(bad, 2); ok && v == versionOf(1, 42) {
			t.Fatalf("flipping byte %d still decodes to the original tag", i)
		}
	}
	if v, ok := decodeTag(make([]byte, objSize), 2); !ok || v != 0 {
		t.Fatal("initial bytes are not version 0")
	}
	if _, ok := decodeTag(append(make([]byte, objSize-1), 1), 2); ok {
		t.Fatal("a wrong byte in the initial content decodes")
	}
}
