package rendezvous

import "fmt"

// checkQuiescent reports the first piece of per-scope state f still holds,
// nil when the fabric is as empty as New and Declare left it (the declared
// endpoints' empty cells and lists aside). Reset visits only the endpoints
// the scope used, so tests assert after each Reset that what it skipped was
// in fact already clear.
func (f *Fabric) checkQuiescent() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.aborted != nil {
		return fmt.Errorf("aborted=%v", f.aborted)
	}
	if u := f.used.Load(); u != nil {
		return fmt.Errorf("endpoint %s still on the used list", u.addr)
	}
	if s := f.seq.Load(); s != 0 || f.posted != 0 {
		return fmt.Errorf("seq = %d, %d ops counted as posted", s, f.posted)
	}
	tbl := f.table()
	f.namesMu.RLock()
	names := len(f.names)
	f.namesMu.RUnlock()
	if len(tbl) != f.kept || names != f.kept {
		return fmt.Errorf("%d endpoints under %d names, %d declared", len(tbl), names, f.kept)
	}
	for _, e := range tbl {
		e.mu.Lock()
		inbox := 0
		for _, c := range e.cells {
			inbox += len(c.ops)
			if int(c.from) >= f.kept {
				inbox++ // a cell for a sender that is gone
			}
		}
		commits := e.fastCommits
		e.mu.Unlock()
		for _, p := range e.peers {
			if int(p) >= f.kept {
				return fmt.Errorf("%s lists dropped endpoint %d as a peer", e.addr, p)
			}
		}
		switch {
		case inbox != 0 || commits != 0:
			return fmt.Errorf("%s's inbox holds %d ops or stale cells, %d fast commits", e.addr, inbox, commits)
		case len(e.pending)+len(e.sends) != 0 || e.terminated:
			return fmt.Errorf("%s: %d pending, %d sends, terminated=%v", e.addr, len(e.pending), len(e.sends), e.terminated)
		case e.hot.Load() != 0 || e.parked.Load() != 0 || e.used.Load() || e.next != nil:
			return fmt.Errorf("%s: hot=%d parked=%d used=%v", e.addr, e.hot.Load(), e.parked.Load(), e.used.Load())
		}
	}
	return nil
}

// terminateWalked returns how many endpoints TerminateID has visited looking
// for stranded groups, and how many ops the pending lists hold by f's count
// and by a walk of them.
func (f *Fabric) terminateWalked() (walked, posted, counted int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, e := range f.table() {
		counted += len(e.pending)
	}
	return f.walked, f.posted, counted
}
