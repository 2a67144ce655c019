// Package locktable provides the lock-table abstract data type the paper's
// database example assumes: "the lock tables are abstract data types with
// the appropriate functions to lock and release entries in the table and to
// check whether read or write locks on a piece of data may be added"
// (Section III, Figure 5).
//
// Two tables are provided. Table is the flat read/write table each
// lock-manager role keeps. GranularTable implements multiple-granularity
// locking with intention modes (IS, IX, S, SIX, X) "as described by Korth",
// the paper's third locking strategy.
//
// Grant decisions are immediate (granted or denied, never blocking): the
// paper's reader and writer roles receive a granted/denied reply from each
// manager and react themselves.
package locktable

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Owner identifies a lock holder (the paper: "each processor, when
// enrolling, provides its unique processor identifier, so that locks may be
// identified unambiguously").
type Owner string

// Locker is what a lock-manager role needs of its table, whichever of the two
// it was given: grant owner a read or a write lock on item if compatible, and
// give one back. Both report whether anything was granted or released;
// neither blocks.
type Locker interface {
	Lock(owner Owner, item string, write bool) bool
	Release(owner Owner, item string) bool
}

var (
	_ Locker = (*Table)(nil)
	_ Locker = (*GranularTable)(nil)
)

// Table is a flat per-item read/write lock table. The zero value is not
// ready; create with NewTable. Safe for concurrent use.
type Table struct {
	mu    sync.Mutex
	items map[string]*itemLocks
}

type itemLocks struct {
	readers map[Owner]int // reentrant read counts
	writer  Owner         // "" when no write lock
	writeN  int           // reentrant write count
}

// NewTable creates an empty lock table.
func NewTable() *Table {
	return &Table{items: make(map[string]*itemLocks)}
}

func (t *Table) item(name string) *itemLocks {
	il, ok := t.items[name]
	if !ok {
		il = &itemLocks{readers: make(map[Owner]int)}
		t.items[name] = il
	}
	return il
}

// CanRead reports whether owner could be granted a read lock on item now.
func (t *Table) CanRead(item string, owner Owner) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.canReadLocked(item, owner)
}

func (t *Table) canReadLocked(item string, owner Owner) bool {
	il, ok := t.items[item]
	if !ok {
		return true
	}
	return il.writer == "" || il.writer == owner
}

// CanWrite reports whether owner could be granted a write lock on item now.
func (t *Table) CanWrite(item string, owner Owner) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.canWriteLocked(item, owner)
}

func (t *Table) canWriteLocked(item string, owner Owner) bool {
	il, ok := t.items[item]
	if !ok {
		return true
	}
	if il.writer != "" && il.writer != owner {
		return false
	}
	for r := range il.readers {
		if r != owner {
			return false
		}
	}
	return true
}

// LockRead grants a read lock to owner if compatible, and reports whether
// it was granted. Read locks are reentrant per owner.
func (t *Table) LockRead(item string, owner Owner) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.canReadLocked(item, owner) {
		return false
	}
	t.item(item).readers[owner]++
	return true
}

// LockWrite grants a write lock to owner if compatible (including the
// upgrade case: owner is the sole reader), and reports whether it was
// granted.
func (t *Table) LockWrite(item string, owner Owner) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.canWriteLocked(item, owner) {
		return false
	}
	il := t.item(item)
	il.writer = owner
	il.writeN++
	return true
}

// Lock implements Locker: LockWrite or LockRead.
func (t *Table) Lock(owner Owner, item string, write bool) bool {
	if write {
		return t.LockWrite(item, owner)
	}
	return t.LockRead(item, owner)
}

// Release removes one of owner's locks on item (write first, then read) and
// reports whether anything was released. Releasing an unheld lock is not an
// error — the paper's release path broadcasts releases to all managers,
// some of which never granted.
func (t *Table) Release(owner Owner, item string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	il, ok := t.items[item]
	if !ok {
		return false
	}
	released := false
	if il.writer == owner {
		il.writeN--
		if il.writeN == 0 {
			il.writer = ""
		}
		released = true
	} else if il.readers[owner] > 0 {
		il.readers[owner]--
		if il.readers[owner] == 0 {
			delete(il.readers, owner)
		}
		released = true
	}
	t.gcLocked(item, il)
	return released
}

// ReleaseAll removes every lock owner holds, returning the number of items
// affected.
func (t *Table) ReleaseAll(owner Owner) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for item, il := range t.items {
		touched := false
		if il.writer == owner {
			il.writer = ""
			il.writeN = 0
			touched = true
		}
		if il.readers[owner] > 0 {
			delete(il.readers, owner)
			touched = true
		}
		if touched {
			n++
		}
		t.gcLocked(item, il)
	}
	return n
}

func (t *Table) gcLocked(item string, il *itemLocks) {
	if il.writer == "" && len(il.readers) == 0 {
		delete(t.items, item)
	}
}

// Holders describes the current locks on one item.
type Holders struct {
	Readers []Owner
	Writer  Owner
}

// Holders returns a snapshot of the locks on item.
func (t *Table) Holders(item string) Holders {
	t.mu.Lock()
	defer t.mu.Unlock()
	il, ok := t.items[item]
	if !ok {
		return Holders{}
	}
	h := Holders{Writer: il.writer}
	for r := range il.readers {
		h.Readers = append(h.Readers, r)
	}
	sort.Slice(h.Readers, func(i, j int) bool { return h.Readers[i] < h.Readers[j] })
	return h
}

// Len returns the number of items with at least one lock.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.items)
}

// Mode is a multiple-granularity lock mode.
type Mode int

// The five modes of Korth-style multiple-granularity locking.
const (
	// IS — intention shared: a descendant will be read-locked.
	IS Mode = iota + 1
	// IX — intention exclusive: a descendant will be write-locked.
	IX
	// S — shared: this whole subtree is read-locked.
	S
	// SIX — shared + intention exclusive.
	SIX
	// X — exclusive: this whole subtree is write-locked.
	X
)

var modeNames = map[Mode]string{IS: "IS", IX: "IX", S: "S", SIX: "SIX", X: "X"}

// String returns the conventional mode name.
func (m Mode) String() string {
	if s, ok := modeNames[m]; ok {
		return s
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// compatible is the standard multiple-granularity compatibility matrix.
var compatible = map[Mode]map[Mode]bool{
	IS:  {IS: true, IX: true, S: true, SIX: true, X: false},
	IX:  {IS: true, IX: true, S: false, SIX: false, X: false},
	S:   {IS: true, IX: false, S: true, SIX: false, X: false},
	SIX: {IS: true, IX: false, S: false, SIX: false, X: false},
	X:   {IS: false, IX: false, S: false, SIX: false, X: false},
}

// Compatible reports whether modes a and b may be held simultaneously by
// different owners on the same node.
func Compatible(a, b Mode) bool { return compatible[a][b] }

// intentionFor returns the ancestor mode required before acquiring m on a
// node: IS for shared acquisitions, IX for exclusive ones.
func intentionFor(m Mode) Mode {
	switch m {
	case IS, S:
		return IS
	default:
		return IX
	}
}

// GranularTable is a multiple-granularity lock table over a tree of nodes
// addressed by slash-separated paths ("db/accounts/row17"). Safe for
// concurrent use.
type GranularTable struct {
	mu    sync.Mutex
	nodes map[string]map[Owner]Mode // path -> owner -> strongest mode held
}

// NewGranularTable creates an empty multiple-granularity table.
func NewGranularTable() *GranularTable {
	return &GranularTable{nodes: make(map[string]map[Owner]Mode)}
}

// ancestors lists the proper ancestors of path, outermost first:
// "a/b/c" -> ["a", "a/b"].
func ancestors(path string) []string {
	parts := strings.Split(path, "/")
	out := make([]string, 0, len(parts)-1)
	for i := 1; i < len(parts); i++ {
		out = append(out, strings.Join(parts[:i], "/"))
	}
	return out
}

// Lock implements Locker: the subtree at path in mode X to write, S to read.
func (g *GranularTable) Lock(owner Owner, path string, write bool) bool {
	if write {
		return g.LockMode(owner, path, X)
	}
	return g.LockMode(owner, path, S)
}

// LockMode acquires mode m on path for owner, first taking the required
// intention locks (IS or IX) on every ancestor, as the multiple-granularity
// protocol demands. If any step conflicts with another owner, nothing is
// changed and LockMode returns false.
func (g *GranularTable) LockMode(owner Owner, path string, m Mode) bool {
	if path == "" || m < IS || m > X {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()

	intent := intentionFor(m)
	plan := make(map[string]Mode, 4)
	for _, anc := range ancestors(path) {
		plan[anc] = strongest(g.heldLocked(owner, anc), intent)
	}
	plan[path] = strongest(g.heldLocked(owner, path), m)

	for node, want := range plan {
		if !g.grantableLocked(owner, node, want) {
			return false
		}
	}
	for node, want := range plan {
		g.setLocked(owner, node, want)
	}
	return true
}

// heldLocked returns the mode owner currently holds on node (0 if none).
func (g *GranularTable) heldLocked(owner Owner, node string) Mode {
	return g.nodes[node][owner]
}

// strongest combines a held mode with a requested one: S+IX and IX+S meet
// at SIX; otherwise the stronger of the two in the partial order
// IS < {IX, S} < SIX < X.
func strongest(held, want Mode) Mode {
	if held == 0 {
		return want
	}
	if held == want {
		return held
	}
	if held == X || want == X {
		return X
	}
	both := map[Mode]bool{held: true, want: true}
	switch {
	case both[SIX], both[S] && both[IX]:
		return SIX
	case both[S]:
		return S
	case both[IX]:
		return IX
	default:
		return IS
	}
}

// grantableLocked reports whether owner may hold mode m on node given the
// other owners' locks.
func (g *GranularTable) grantableLocked(owner Owner, node string, m Mode) bool {
	for other, held := range g.nodes[node] {
		if other == owner {
			continue
		}
		if !Compatible(m, held) {
			return false
		}
	}
	return true
}

func (g *GranularTable) setLocked(owner Owner, node string, m Mode) {
	ns, ok := g.nodes[node]
	if !ok {
		ns = make(map[Owner]Mode)
		g.nodes[node] = ns
	}
	ns[owner] = m
}

// Held returns the mode owner holds on path (0 if none).
func (g *GranularTable) Held(owner Owner, path string) Mode {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.heldLocked(owner, path)
}

// Release drops owner's lock on path, then removes owner's intention locks
// on each ancestor that no longer protects any of owner's remaining locks
// (leaf-to-root, as the multiple-granularity protocol requires). It reports
// whether a lock on path itself was held.
func (g *GranularTable) Release(owner Owner, path string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.nodes[path][owner] == 0 {
		return false
	}
	g.dropLocked(owner, path)
	ancs := ancestors(path)
	for i := len(ancs) - 1; i >= 0; i-- {
		if g.ownerHoldsBelowLocked(owner, ancs[i]) {
			break // this intention (and the ones above it) is still needed
		}
		g.dropLocked(owner, ancs[i])
	}
	return true
}

// dropLocked removes owner's lock on node, and the node once nobody holds one.
func (g *GranularTable) dropLocked(owner Owner, node string) {
	ns := g.nodes[node]
	delete(ns, owner)
	if len(ns) == 0 {
		delete(g.nodes, node)
	}
}

// ownerHoldsBelowLocked reports whether owner holds any lock strictly below
// node.
func (g *GranularTable) ownerHoldsBelowLocked(owner Owner, node string) bool {
	prefix := node + "/"
	for p, ns := range g.nodes {
		if strings.HasPrefix(p, prefix) && ns[owner] != 0 {
			return true
		}
	}
	return false
}

// ReleaseAll drops every lock owner holds anywhere in the tree and returns
// the number of nodes affected. (Multiple-granularity release must proceed
// leaf-to-root; releasing everything at once respects that trivially.)
func (g *GranularTable) ReleaseAll(owner Owner) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for node, ns := range g.nodes {
		if _, ok := ns[owner]; ok {
			g.dropLocked(owner, node)
			n++
		}
	}
	return n
}

// NodeCount returns the number of nodes with at least one lock.
func (g *GranularTable) NodeCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.nodes)
}
