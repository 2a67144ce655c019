package locktable

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestReadLocksShare(t *testing.T) {
	tb := NewTable()
	if !tb.LockRead("x", "A") || !tb.LockRead("x", "B") {
		t.Fatal("two readers must share")
	}
	h := tb.Holders("x")
	if len(h.Readers) != 2 || h.Writer != "" {
		t.Fatalf("holders = %+v", h)
	}
}

func TestWriteExcludesAll(t *testing.T) {
	tb := NewTable()
	if !tb.LockWrite("x", "A") {
		t.Fatal("first write lock must be granted")
	}
	if tb.LockWrite("x", "B") {
		t.Fatal("second writer must be denied")
	}
	if tb.LockRead("x", "B") {
		t.Fatal("reader must be denied while write-locked")
	}
	if !tb.CanRead("x", "A") || !tb.CanWrite("x", "A") {
		t.Fatal("writer itself retains access")
	}
}

func TestReadBlocksWrite(t *testing.T) {
	tb := NewTable()
	tb.LockRead("x", "A")
	if tb.LockWrite("x", "B") {
		t.Fatal("write must be denied while read-locked by another owner")
	}
	if !tb.CanWrite("y", "B") {
		t.Fatal("unrelated item must be free")
	}
}

func TestUpgradeSoleReader(t *testing.T) {
	tb := NewTable()
	tb.LockRead("x", "A")
	if !tb.LockWrite("x", "A") {
		t.Fatal("sole reader must be able to upgrade")
	}
	tb.LockRead("y", "A")
	tb.LockRead("y", "B")
	if tb.LockWrite("y", "A") {
		t.Fatal("upgrade with other readers present must be denied")
	}
}

func TestReentrantLocks(t *testing.T) {
	tb := NewTable()
	if !tb.LockRead("x", "A") || !tb.LockRead("x", "A") {
		t.Fatal("read locks must be reentrant")
	}
	if !tb.Release("A", "x") {
		t.Fatal("first release")
	}
	h := tb.Holders("x")
	if len(h.Readers) != 1 {
		t.Fatalf("after one release, holders = %+v (reentrancy lost)", h)
	}
	tb.Release("A", "x")
	if tb.Len() != 0 {
		t.Fatal("fully released item must be garbage-collected")
	}
}

func TestReleaseUnheldIsNotAnError(t *testing.T) {
	tb := NewTable()
	if tb.Release("A", "x") {
		t.Fatal("releasing an unheld lock must report false, not panic")
	}
}

func TestReleaseWritePreferredOverRead(t *testing.T) {
	tb := NewTable()
	tb.LockRead("x", "A")
	tb.LockWrite("x", "A") // upgraded; holds both
	tb.Release("A", "x")   // drops the write lock first
	h := tb.Holders("x")
	if h.Writer != "" || len(h.Readers) != 1 {
		t.Fatalf("after releasing write: %+v", h)
	}
}

func TestReleaseAll(t *testing.T) {
	tb := NewTable()
	tb.LockRead("x", "A")
	tb.LockWrite("y", "A")
	tb.LockRead("x", "B")
	if n := tb.ReleaseAll("A"); n != 2 {
		t.Fatalf("ReleaseAll = %d, want 2", n)
	}
	if !tb.CanWrite("y", "B") {
		t.Fatal("y must be free after ReleaseAll(A)")
	}
	if h := tb.Holders("x"); len(h.Readers) != 1 || h.Readers[0] != "B" {
		t.Fatalf("x holders = %+v", h)
	}
}

func TestTableConcurrentSafety(t *testing.T) {
	tb := NewTable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		owner := Owner(fmt.Sprintf("O%d", g))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				item := fmt.Sprintf("item%d", i%5)
				if tb.LockRead(item, owner) {
					tb.Release(owner, item)
				}
				if tb.LockWrite(item, owner) {
					tb.Release(owner, item)
				}
			}
		}()
	}
	wg.Wait()
	if tb.Len() != 0 {
		t.Fatalf("leaked locks: %d items", tb.Len())
	}
}

func TestPropertyWriterExcludesOthers(t *testing.T) {
	// Property: whenever a write lock is held, no other owner can acquire
	// anything on that item.
	prop := func(ops []uint8) bool {
		tb := NewTable()
		owners := []Owner{"A", "B", "C"}
		held := map[Owner]int{}
		for _, op := range ops {
			o := owners[int(op)%len(owners)]
			switch (op / 3) % 3 {
			case 0:
				if tb.LockRead("x", o) {
					held[o]++
				}
			case 1:
				if tb.LockWrite("x", o) {
					held[o]++
				}
			case 2:
				if tb.Release(o, "x") {
					held[o]--
				}
			}
			h := tb.Holders("x")
			if h.Writer != "" {
				for _, r := range h.Readers {
					if r != h.Writer {
						return false // reader coexists with foreign writer
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGranularCompatibilityMatrix(t *testing.T) {
	tests := []struct {
		a, b Mode
		want bool
	}{
		{IS, IS, true}, {IS, IX, true}, {IS, S, true}, {IS, SIX, true}, {IS, X, false},
		{IX, IX, true}, {IX, S, false}, {IX, SIX, false}, {IX, X, false},
		{S, S, true}, {S, SIX, false}, {S, X, false},
		{SIX, SIX, false}, {SIX, X, false},
		{X, X, false},
	}
	for _, tt := range tests {
		if got := Compatible(tt.a, tt.b); got != tt.want {
			t.Errorf("Compatible(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
		if got := Compatible(tt.b, tt.a); got != tt.want {
			t.Errorf("Compatible(%v,%v) = %v, want %v (symmetry)", tt.b, tt.a, got, tt.want)
		}
	}
}

func TestGranularLockTakesAncestorIntentions(t *testing.T) {
	g := NewGranularTable()
	if !g.LockMode("A", "db/t1/r1", X) {
		t.Fatal("first lock must be granted")
	}
	if g.Held("A", "db") != IX || g.Held("A", "db/t1") != IX {
		t.Fatalf("ancestors: db=%v db/t1=%v, want IX/IX", g.Held("A", "db"), g.Held("A", "db/t1"))
	}
	if g.Held("A", "db/t1/r1") != X {
		t.Fatalf("target mode = %v, want X", g.Held("A", "db/t1/r1"))
	}
}

func TestGranularConflictsDetectedAtEveryLevel(t *testing.T) {
	g := NewGranularTable()
	if !g.LockMode("A", "db/t1", S) {
		t.Fatal("S on table must be granted")
	}
	// B wants X on a row under the S-locked table: the IX intention on
	// db/t1 conflicts with A's S.
	if g.LockMode("B", "db/t1/r9", X) {
		t.Fatal("X under a foreign S subtree must be denied")
	}
	// Reads below the S subtree are fine.
	if !g.LockMode("B", "db/t1/r9", IS) {
		t.Fatal("IS under S must be granted")
	}
	// A whole-tree X conflicts with everything.
	if g.LockMode("C", "db", X) {
		t.Fatal("root X with other holders must be denied")
	}
}

func TestGranularFailedLockChangesNothing(t *testing.T) {
	g := NewGranularTable()
	g.LockMode("A", "db/t1", S)
	before := g.NodeCount()
	if g.LockMode("B", "db/t1/r1", X) {
		t.Fatal("lock should fail")
	}
	if g.NodeCount() != before {
		t.Fatal("failed lock leaked state (no rollback)")
	}
	if g.Held("B", "db") != 0 {
		t.Fatal("failed lock left an ancestor intention")
	}
}

func TestGranularModeCombination(t *testing.T) {
	g := NewGranularTable()
	g.LockMode("A", "db/t1", S)
	// A now also wants to write a row: S + IX on db/t1 must combine to SIX.
	if !g.LockMode("A", "db/t1/r1", X) {
		t.Fatal("self-upgrade must succeed")
	}
	if got := g.Held("A", "db/t1"); got != SIX {
		t.Fatalf("combined mode = %v, want SIX", got)
	}
	// SIX blocks other writers and readers of the subtree, allows IS.
	if g.LockMode("B", "db/t1", S) {
		t.Fatal("S against SIX must be denied")
	}
	if !g.LockMode("B", "db/t1/r2", IS) {
		t.Fatal("IS against SIX must be granted")
	}
}

func TestGranularReleaseAll(t *testing.T) {
	g := NewGranularTable()
	g.LockMode("A", "db/t1/r1", X)
	g.LockMode("B", "db/t2/r1", S)
	if n := g.ReleaseAll("A"); n != 3 { // db, db/t1, db/t1/r1
		t.Fatalf("ReleaseAll = %d, want 3", n)
	}
	if !g.LockMode("C", "db/t1", X) {
		t.Fatal("subtree must be writable after release (except db root shared with B)")
	}
}

func TestGranularInvalidArgs(t *testing.T) {
	g := NewGranularTable()
	if g.LockMode("A", "", S) {
		t.Error("empty path must be rejected")
	}
	if g.LockMode("A", "x", Mode(0)) || g.LockMode("A", "x", Mode(9)) {
		t.Error("invalid mode must be rejected")
	}
}

func TestStrongestIsCommutativeAndAbsorbing(t *testing.T) {
	modes := []Mode{IS, IX, S, SIX, X}
	for _, a := range modes {
		for _, b := range modes {
			ab, ba := strongest(a, b), strongest(b, a)
			if ab != ba {
				t.Errorf("strongest(%v,%v)=%v != strongest(%v,%v)=%v", a, b, ab, b, a, ba)
			}
			// The combination must be at least as strong as both inputs:
			// anything incompatible with a or b is incompatible with ab.
			for _, probe := range modes {
				if Compatible(ab, probe) && (!Compatible(a, probe) || !Compatible(b, probe)) {
					t.Errorf("strongest(%v,%v)=%v weaker than inputs (probe %v)", a, b, ab, probe)
				}
			}
		}
	}
}

func TestModeString(t *testing.T) {
	if IS.String() != "IS" || SIX.String() != "SIX" || X.String() != "X" {
		t.Error("mode names wrong")
	}
}

func TestHoldersEmptyAndWriteOnly(t *testing.T) {
	tb := NewTable()
	if h := tb.Holders("nothing"); h.Writer != "" || len(h.Readers) != 0 {
		t.Fatalf("empty holders = %+v", h)
	}
	tb.LockWrite("x", "A")
	h := tb.Holders("x")
	if h.Writer != "A" || len(h.Readers) != 0 {
		t.Fatalf("write-only holders = %+v", h)
	}
}

func TestReentrantWriteLock(t *testing.T) {
	tb := NewTable()
	if !tb.LockWrite("x", "A") || !tb.LockWrite("x", "A") {
		t.Fatal("write locks must be reentrant for the same owner")
	}
	tb.Release("A", "x")
	if h := tb.Holders("x"); h.Writer != "A" {
		t.Fatalf("after one release holders = %+v (reentrancy lost)", h)
	}
	tb.Release("A", "x")
	if tb.Len() != 0 {
		t.Fatal("fully released item must be gone")
	}
}

func TestGranularHeldAndNodeCount(t *testing.T) {
	g := NewGranularTable()
	if g.Held("A", "db") != 0 {
		t.Fatal("unheld node must report 0")
	}
	g.LockMode("A", "db/t1", IS)
	if g.NodeCount() != 2 { // db (IS intention) + db/t1
		t.Fatalf("NodeCount = %d, want 2", g.NodeCount())
	}
	if g.Release("A", "db/missing") {
		t.Fatal("releasing an unheld path must report false")
	}
}

func TestGranularReleaseKeepsNeededIntentions(t *testing.T) {
	g := NewGranularTable()
	g.LockMode("A", "db/t1/r1", X)
	g.LockMode("A", "db/t1/r2", X)
	g.Release("A", "db/t1/r1")
	// db and db/t1 intentions must survive: r2 still locked below them.
	if g.Held("A", "db/t1") != IX || g.Held("A", "db") != IX {
		t.Fatal("needed ancestor intentions were dropped")
	}
	g.Release("A", "db/t1/r2")
	if g.NodeCount() != 0 {
		t.Fatalf("NodeCount = %d after full release, want 0", g.NodeCount())
	}
}

// TestLockerOnBothTables drives the two tables through the one interface the
// lock-manager roles use: readers share, a writer excludes, a release frees.
func TestLockerOnBothTables(t *testing.T) {
	for name, l := range map[string]Locker{"flat": NewTable(), "granular": NewGranularTable()} {
		t.Run(name, func(t *testing.T) {
			if !l.Lock("A", "db/t1", false) || !l.Lock("B", "db/t1", false) {
				t.Fatal("two readers must share an item")
			}
			if l.Lock("C", "db/t1", true) {
				t.Fatal("write granted over two read locks")
			}
			if !l.Release("A", "db/t1") || !l.Release("B", "db/t1") || l.Release("B", "db/t1") {
				t.Fatal("Release must report exactly the locks that were held")
			}
			if !l.Lock("C", "db/t1", true) || l.Lock("A", "db/t1", false) {
				t.Fatal("a write lock must be granted on a free item and exclude readers")
			}
		})
	}
}
