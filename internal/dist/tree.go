package dist

import (
	"context"

	"github.com/scriptabs/goscript/internal/rendezvous"
)

// Tree is a combining-tree synchronizer: the nodes form a binary tree
// (node i's children are 2i and 2i+1), enrollment counts combine upward,
// and the root's release wave propagates downward. It sits between the
// other two protocols: O(log n) serial hops per round (vs the ring's O(n))
// with per-node load bounded by the node's degree (vs the coordinator's
// O(n)) — the standard trade-off in multiway-synchronization trees.
type Tree struct{ shell }

// NewTree creates a combining-tree synchronizer for n roles and starts its
// node processes.
func NewTree(n int) *Tree {
	t := &Tree{}
	t.start(n, max(n, 1), t.node)
	return t
}

// children returns node i's tree children that exist.
func (t *Tree) children(i int) []int {
	var out []int
	for _, c := range []int{2 * i, 2*i + 1} {
		if c <= t.n {
			out = append(out, c)
		}
	}
	return out
}

// node runs one tree node. Per round: wait for the local enrollment and a
// "done" message from each child, then report "done" to the parent; the
// root instead starts the "release" wave, which every node forwards to its
// children after releasing its local enroller.
func (t *Tree) node(ctx context.Context, i int) {
	me := nodeAddr(i)
	parent := nodeAddr(i / 2)
	kids := t.children(i)

	send := func(to rendezvous.Addr, tag rendezvous.Tag, v any) bool {
		t.counter.note(me, to)
		return t.fabric.Send(ctx, me, to, tag, v) == nil
	}
	recv := func(from rendezvous.Addr, tag rendezvous.Tag) bool {
		_, err := t.fabric.Recv(ctx, me, from, tag)
		return err == nil
	}

	for round := 1; ; round++ {
		waiter := t.awaitLocal(ctx, i)
		if waiter == nil {
			return
		}
		// Combine: collect the subtree counts.
		for _, c := range kids {
			if !recv(nodeAddr(c), "done") {
				return
			}
		}
		if i == 1 {
			// Root: the whole tree has enrolled; start the release wave.
			t.setRounds(round)
		} else {
			if !send(parent, "done", i) {
				return
			}
			if !recv(parent, "release") {
				return
			}
		}
		waiter <- round
		for _, c := range kids {
			if !send(nodeAddr(c), "release", round) {
				return
			}
		}
	}
}

var _ Synchronizer = (*Tree)(nil)
