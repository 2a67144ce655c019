package rendezvous

import "fmt"

// checkQuiescent reports the first piece of per-scope state f still holds,
// nil when the fabric is as empty as New left it (map buckets aside). Reset
// no longer sweeps its tables, so tests assert after each Reset that what it
// skipped was in fact already clear.
func (f *Fabric) checkQuiescent() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || f.aborted != nil {
		return fmt.Errorf("closed=%v aborted=%v", f.closed, f.aborted)
	}
	if n := len(f.byOwner) + len(f.sendersTo) + len(f.terminated); n != 0 {
		return fmt.Errorf("%d keys left in byOwner/sendersTo/terminated", n)
	}
	if n := f.parked.Load(); n != 0 {
		return fmt.Errorf("parked = %d", n)
	}
	if m := f.touched.Load(); m != 0 {
		return fmt.Errorf("touched = %#x", m)
	}
	if s := f.seq.Load(); s != 0 {
		return fmt.Errorf("seq = %d", s)
	}
	for i := range f.hot {
		if n := f.hot[i].Load(); n != 0 {
			return fmt.Errorf("hot[%d] = %d", i, n)
		}
		if n := f.parkedAt[i].Load(); n != 0 {
			return fmt.Errorf("parkedAt[%d] = %d", i, n)
		}
	}
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		cells, commits := len(sh.cells), sh.fastCommits
		sh.mu.Unlock()
		if cells != 0 || commits != 0 {
			return fmt.Errorf("shard %d holds %d cells, %d fast commits", i, cells, commits)
		}
	}
	return nil
}
