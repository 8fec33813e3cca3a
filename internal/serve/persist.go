package serve

import (
	"encoding/json"
	"fmt"
	"sync"

	"extmesh"
	"extmesh/internal/journal"
)

// journalError marks a mutation that applied in memory but failed to
// reach the journal — the one case where the server's durable and live
// states can diverge. Handlers surface it as a 500 so clients know the
// acknowledgment is not crash-safe.
type journalError struct{ err error }

func (e *journalError) Error() string { return "journal append failed: " + e.err.Error() }
func (e *journalError) Unwrap() error { return e.err }

// persister serializes registry mutations with their journal appends,
// so the journal's record order always matches the order mutations
// were applied in — the property replay correctness rests on. With a
// nil store it degrades to plain (memory-only) mutations. Queries
// never pass through here; only mutations serialize.
type persister struct {
	mu    sync.Mutex
	store *journal.Store // nil: memory-only
	reg   *Registry
	// noteSeq observes every durably applied sequence number (appends
	// on a primary, replicated records on a replica); nil-safe.
	noteSeq func(uint64)
	// subs are live replication followers; each journaled record is
	// fanned out to them in append order, under p.mu, so every follower
	// observes mutations in exactly the order they were applied.
	subs map[*repSub]struct{}
}

func (p *persister) note(seq uint64) {
	if p.noteSeq != nil {
		p.noteSeq(seq)
	}
}

// broadcast fans a freshly journaled record out to the replication
// followers. A follower whose buffer is full is cut off (its channel
// closes) rather than allowed to stall mutations; it reconnects and
// resumes from its applied offset. Callers hold p.mu.
func (p *persister) broadcast(r journal.Record) {
	for sub := range p.subs {
		select {
		case sub.ch <- r:
		default:
			delete(p.subs, sub)
			close(sub.ch)
		}
	}
}

// append journals the record and, when the log generation has grown
// past the configured threshold, folds the registry into a fresh
// snapshot. Callers hold p.mu.
func (p *persister) append(r journal.Record) error {
	if p.store == nil {
		return nil
	}
	seq, err := p.store.Append(r)
	if err != nil {
		return &journalError{err}
	}
	r.Seq = seq
	p.note(seq)
	p.broadcast(r)
	if p.store.NeedsCompaction() {
		if err := p.compactLocked(); err != nil {
			return &journalError{err}
		}
	}
	return nil
}

// bumpEpoch journals an epoch-bump record — the durable half of a
// promotion. The record rides the ordinary append path, so connected
// followers learn the new epoch through the stream in sequence order,
// and crash recovery replays it like any other mutation.
func (p *persister) bumpEpoch(epoch uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.append(journal.Record{Op: journal.OpEpoch, Epoch: epoch})
}

// putRecord builds the OpPut record for a mesh's current state.
func putRecord(name string, d *extmesh.DynamicNetwork) (journal.Record, error) {
	blob, err := d.MarshalJSON()
	if err != nil {
		return journal.Record{}, err
	}
	return journal.Record{Op: journal.OpPut, Name: name, Blob: blob, Version: d.Version()}, nil
}

// create registers a new mesh and journals it; a name conflict returns
// the registry's error unwrapped (handlers map it to 409).
func (p *persister) create(name string, d *extmesh.DynamicNetwork) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, err := putRecord(name, d)
	if err != nil {
		return err
	}
	if err := p.reg.Create(name, d); err != nil {
		return err
	}
	return p.append(r)
}

// put registers or replaces a mesh and journals it.
func (p *persister) put(name string, d *extmesh.DynamicNetwork) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, err := putRecord(name, d)
	if err != nil {
		return err
	}
	if err := p.reg.Put(name, d); err != nil {
		return err
	}
	return p.append(r)
}

// delete removes a mesh, journaling only when something was removed.
func (p *persister) delete(name string) (bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.reg.Delete(name) {
		return false, nil
	}
	return true, p.append(journal.Record{Op: journal.OpDelete, Name: name})
}

// apply runs a fail/recover batch on d and journals the attempted
// lists whenever state changed. Journaling intent rather than outcome
// is safe because Apply is deterministic: replaying the same lists
// against the same prior state reproduces the same applied/skipped
// split — and the same partial prefix if the batch errors midway.
func (p *persister) apply(name string, d *extmesh.DynamicNetwork, fail, recover []extmesh.Coord) (applied, skipped int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	applied, skipped, err = d.Apply(fail, recover)
	if applied > 0 {
		if jerr := p.append(journal.Record{Op: journal.OpApply, Name: name, Fail: fail, Recover: recover}); err == nil {
			err = jerr
		}
	}
	return applied, skipped, err
}

// snapshotState collects the registry's durable state under p.mu, so
// the snapshot is a consistent point between mutations.
func (p *persister) snapshotState() (map[string]journal.SnapshotMesh, error) {
	state := make(map[string]journal.SnapshotMesh)
	for _, name := range p.reg.Names() {
		d := p.reg.Get(name)
		if d == nil {
			continue
		}
		blob, err := d.MarshalJSON()
		if err != nil {
			return nil, fmt.Errorf("serve: snapshot mesh %q: %w", name, err)
		}
		state[name] = journal.SnapshotMesh{Blob: blob, Version: d.Version()}
	}
	return state, nil
}

func (p *persister) compactLocked() error {
	state, err := p.snapshotState()
	if err != nil {
		return err
	}
	return p.store.Compact(state)
}

// checkpoint folds the current registry into a fresh snapshot
// generation — the graceful-drain and post-recovery entry point.
func (p *persister) checkpoint() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.store == nil {
		return nil
	}
	return p.compactLocked()
}

// restoreMesh rebuilds one mesh from its durable form: the blob
// replays the surviving faults, then the saved version is restored so
// version continuity survives the round trip.
func restoreMesh(name string, blob json.RawMessage, version uint64) (*extmesh.DynamicNetwork, error) {
	d, err := extmesh.UnmarshalDynamic(blob)
	if err != nil {
		return nil, fmt.Errorf("serve: recover mesh %q: %w", name, err)
	}
	if err := d.RestoreVersion(version); err != nil {
		return nil, fmt.Errorf("serve: recover mesh %q: %w", name, err)
	}
	return d, nil
}

// Recover replays the journal into the registry: the snapshot's meshes
// first, then every logged mutation in order. It finishes by folding
// the recovered state into a fresh snapshot generation (so the next
// recovery starts from one file) and marking the server ready. It must
// be called before serving when the server has a journal; without one
// it is a no-op.
//
// Records referencing meshes that no longer exist (a mutation raced a
// delete before the crash) are skipped, mirroring how the live server
// would have answered 404 after the delete.
func (s *Server) Recover() error {
	if s.persist.store == nil {
		s.SetReady(true)
		return nil
	}
	rec, err := s.persist.store.Recover()
	if err != nil {
		return err
	}
	for name, sm := range rec.Meshes {
		d, err := restoreMesh(name, sm.Blob, sm.Version)
		if err != nil {
			return err
		}
		if err := s.meshes.Put(name, d); err != nil {
			return err
		}
	}
	for _, r := range rec.Records {
		if err := s.applyRecord(r); err != nil {
			return err
		}
	}
	if err := s.persist.checkpoint(); err != nil {
		return err
	}
	s.journalSeq.Store(s.persist.store.Seq())
	s.setEpoch(s.persist.store.Epoch())
	s.SetReady(true)
	return nil
}

// applyRecord applies one journal record to the registry without
// journaling it — the shared replay path of crash recovery and
// replication streaming. Both callers feed it the same deterministic
// record stream, which is what makes a replica's state bit-identical
// to its primary's.
func (s *Server) applyRecord(r journal.Record) error {
	switch r.Op {
	case journal.OpPut:
		d, err := restoreMesh(r.Name, r.Blob, r.Version)
		if err != nil {
			return err
		}
		return s.meshes.Put(r.Name, d)
	case journal.OpDelete:
		s.meshes.Delete(r.Name)
	case journal.OpApply:
		d := s.meshes.Get(r.Name)
		if d == nil {
			return nil
		}
		// Replay re-executes the attempted batch; a partial batch
		// errors at the same point it originally did, which is the
		// recorded (and correct) final state, so the error only
		// matters if it happens earlier — impossible for a
		// deterministic mutation on identical state.
		d.Apply(r.Fail, r.Recover)
	case journal.OpEvents:
		// Written only by servers that still had the fault-schedule
		// admin form; replayed so their data directories recover.
		d := s.meshes.Get(r.Name)
		if d == nil {
			return nil
		}
		for _, ev := range r.Events {
			if ev.Op == "fail" {
				d.Apply([]extmesh.Coord{ev.Node}, nil)
			} else {
				d.Apply(nil, []extmesh.Coord{ev.Node})
			}
		}
	case journal.OpEpoch:
		// No mesh state changes; the record's whole job is raising the
		// cluster epoch durably — on the promoting primary, on every
		// follower that streams it, and on crash recovery.
		s.setEpoch(r.Epoch)
	default:
		return fmt.Errorf("serve: journal record %d has unknown op %q", r.Seq, r.Op)
	}
	return nil
}

// Checkpoint folds the live registry into a fresh snapshot generation;
// the daemon calls it after a graceful drain so restart recovery is a
// single snapshot load. A no-op without a journal.
func (s *Server) Checkpoint() error { return s.persist.checkpoint() }

// ExportState marshals the registry's full durable state (every mesh
// blob plus version; map keys are emitted sorted by encoding/json)
// under the mutation lock. Two nodes that applied the same record
// stream produce byte-identical exports — the convergence check the
// cluster chaos suite asserts on.
func (s *Server) ExportState() ([]byte, error) {
	s.persist.mu.Lock()
	defer s.persist.mu.Unlock()
	state, err := s.persist.snapshotState()
	if err != nil {
		return nil, err
	}
	return json.Marshal(state)
}

// RegisterMesh registers a mesh through the durable path — preloads
// from daemon flags journal exactly like API creations.
func (s *Server) RegisterMesh(name string, d *extmesh.DynamicNetwork) error {
	return s.persist.create(name, d)
}
