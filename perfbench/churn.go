package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"extmesh"
	"extmesh/internal/serve"
	"extmesh/internal/wire"
	"extmesh/meshclient"
)

// churnWL is churn_cluster: a failover-managed primary and follower,
// each journaled under the default interval fsync, so every write
// waits for the follower's confirmation. One open-loop writer sends
// transient fault events at a fixed rate through the cluster client
// and probes each acknowledged write with one binary Route; one
// closed-loop binary reader alternates Route (with path) and
// HasMinimalPath against the primary. The writer's probe shares the
// reader's binary connection, so the load holds two connections.
type churnWL struct {
	cfg    config
	faults []extmesh.Coord
	pairs  []extmesh.Pair
	probes []extmesh.Pair
	plan   *writePlan

	dir     string
	primary *node
	follow  *node
	cluster *meshclient.ClusterClient
	bin     *meshclient.BinaryClient

	// Writer state. Write i (1-based) applies events[i-1]; state i is
	// the fault set after write i, state 0 the initial one. sent and
	// acked bracket what a concurrent read may observe.
	events      []faultEvent
	sent, acked atomic.Int64
	writeErrs   []error
	lagMax      atomic.Uint64
	schedule    openLoop
	reads       []churnRead
	probeRecs   []probeRec
	readCalls   int64
	probeCalls  int64
	readCounter int
}

// churnRead is one reader answer and the window of writer states it
// may have been answered at.
type churnRead struct {
	Pair   uint32
	Op     uint8
	Lo, Hi int32
	Digest uint64
}

// probeRec is one read-after-write probe, which must observe exactly
// the state its write produced.
type probeRec struct {
	Pair   uint32
	State  int32
	Digest uint64
}

const (
	churnK        = 100
	churnMaxExtra = 10
	churnRate     = 50 // writes per second
	churnPool     = 4096
)

func newChurn(cfg config) (*churnWL, error) {
	faults, err := randomFaults(cfg.Seed, churnK)
	if err != nil {
		return nil, err
	}
	net, err := extmesh.New(meshSide, meshSide, faults)
	if err != nil {
		return nil, err
	}
	nodes := healthyNodes(net)
	w := &churnWL{
		cfg:      cfg,
		faults:   faults,
		pairs:    uniformPairs(rng(cfg.Seed, streamPairs), nodes, churnPool),
		probes:   uniformPairs(rng(cfg.Seed, streamProbes), nodes, churnPool),
		schedule: openLoop{interval: time.Second / churnRate},
	}
	exclude := map[extmesh.Coord]bool{}
	for _, ps := range [][]extmesh.Pair{w.pairs, w.probes} {
		for _, p := range ps {
			exclude[p.Src], exclude[p.Dst] = true, true
		}
	}
	w.plan = newWritePlan(cfg.Seed, faults, exclude, churnMaxExtra)
	return w, nil
}

func (w *churnWL) setup() error {
	var err error
	if w.dir, err = os.MkdirTemp(filepath.Join(w.cfg.Workdir, "tmp"), "churn-"); err != nil {
		return err
	}
	if w.primary, err = newNode("n0", filepath.Join(w.dir, "n0")); err != nil {
		return err
	}
	if w.follow, err = newNode("n1", filepath.Join(w.dir, "n1")); err != nil {
		return err
	}
	if err := w.primary.start(&serve.FailoverOptions{Peers: []string{w.follow.repL.Addr().String()}, StartPrimary: true}); err != nil {
		return err
	}
	if err := w.follow.start(&serve.FailoverOptions{Peers: []string{w.primary.repL.Addr().String()}, Rank: 1}); err != nil {
		return err
	}
	if err := waitFor("follower to attach", 10*time.Second, func() bool {
		return len(w.primary.srv.ReplicationStatus().Followers) == 1
	}); err != nil {
		return err
	}
	if w.cluster, err = meshclient.NewCluster(meshclient.ClusterOptions{Primary: w.primary.httpURL, Replicas: []string{w.follow.httpURL}}); err != nil {
		return err
	}
	ctx := context.Background()
	if _, err := w.cluster.CreateMesh(ctx, meshName, meshSide, meshSide, w.faults); err != nil {
		return fmt.Errorf("create mesh: %w", err)
	}
	if err := w.waitCaughtUp(); err != nil {
		return err
	}
	if w.bin, err = meshclient.NewBinary(meshclient.BinaryOptions{Addr: w.primary.binAddr}); err != nil {
		return err
	}
	// Warm: dial, and build the snapshot, its router views and a reach
	// sweep.
	p := w.pairs[0]
	if _, err := askBinary(ctx, w.bin, wire.OpRoute, p.Src, p.Dst); isFailure(err) {
		return err
	}
	if _, err := askBinary(ctx, w.bin, wire.OpHasMinimalPath, p.Src, p.Dst); isFailure(err) {
		return err
	}
	return nil
}

// waitCaughtUp waits until the follower has applied everything the
// primary journaled.
func (w *churnWL) waitCaughtUp() error {
	return waitFor("follower to catch up", 10*time.Second, func() bool {
		return w.follow.srv.JournalSeq() == w.primary.srv.JournalSeq()
	})
}

// askBinary sends one single-pair query over the binary client and
// digests the answer like the library side does.
func askBinary(ctx context.Context, c *meshclient.BinaryClient, op uint8, s, d extmesh.Coord) (uint64, error) {
	q := meshclient.Query{Src: s, Dst: d}
	switch op {
	case wire.OpRoute:
		r, err := c.Route(ctx, meshName, q)
		if err != nil {
			if !isFailure(err) {
				return routeDigest(noPath, nil, true), err
			}
			return 0, err
		}
		return routeDigest(r.Hops, r.Path, true), nil
	case wire.OpHasMinimalPath:
		ok, err := c.HasMinimalPath(ctx, meshName, q)
		return boolDigest(ok), err
	case wire.OpEnsure:
		a, err := c.Ensure(ctx, meshName, q)
		if err != nil {
			return 0, err
		}
		return ensureDigest(a.Verdict, a.Via), nil
	default:
		ok, err := c.Safe(ctx, meshName, q)
		return boolDigest(ok), err
	}
}

// openLoop is the writer's schedule: write j of a run is due interval*j
// after the run starts, whether or not earlier writes have finished.
// Latency counts from the due time, so a stall also charges every
// write queued behind it.
type openLoop struct {
	interval time.Duration
}

func (o openLoop) due(start time.Time, j int) time.Time {
	return start.Add(time.Duration(j) * o.interval)
}

// writeTiming is one open-loop write's accounting: latency from the
// due time, and how late the generator sent it.
func writeTiming(due, sent, acked time.Time) (latency, lag time.Duration) {
	return acked.Sub(due), sent.Sub(due)
}

func faultsRequest(ev faultEvent) meshclient.FaultsRequest {
	if ev.Fail {
		return meshclient.FaultsRequest{Fail: []extmesh.Coord{ev.Node}}
	}
	return meshclient.FaultsRequest{Recover: []extmesh.Coord{ev.Node}}
}

func (w *churnWL) run(until time.Time, tr *tracer) (*loadResult, error) {
	ctx := context.Background()
	res := &loadResult{TailQ: 0.99}
	var writeLat, rawLat, genLag []time.Duration
	var writeFailed, probeFailed int64
	var writeErr error
	win := openWindow()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		for j := 0; ; j++ {
			due := w.schedule.due(start, j)
			if !due.Before(until) {
				return
			}
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			ev := w.plan.next()
			w.events = append(w.events, ev)
			idx := w.sent.Add(1)
			sent := time.Now()
			_, err := w.cluster.ApplyFaults(ctx, meshName, faultsRequest(ev))
			acked := time.Now()
			if tr != nil {
				tr.record("meshclient.ClusterClient.ApplyFaults", 0, tr.newReq(), sent, acked)
			}
			if err != nil {
				writeFailed++
				w.writeErrs = append(w.writeErrs, fmt.Errorf("write %d: %w", idx, err))
				if writeErr == nil {
					writeErr = err
				}
				continue
			}
			w.acked.Store(idx)
			lat, lag := writeTiming(due, sent, acked)
			writeLat = append(writeLat, lat)
			genLag = append(genLag, lag)

			p := int(idx) % len(w.probes)
			t0 := time.Now()
			dg, err := askBinary(ctx, w.bin, wire.OpRoute, w.probes[p].Src, w.probes[p].Dst)
			t1 := time.Now()
			w.probeCalls++
			if tr != nil {
				tr.record("meshclient.BinaryClient.Route", 0, tr.newReq(), t0, t1)
			}
			if isFailure(err) {
				probeFailed++
				continue
			}
			rawLat = append(rawLat, t1.Sub(t0))
			w.probeRecs = append(w.probeRecs, probeRec{Pair: uint32(p), State: int32(idx), Digest: dg})
		}
	}()
	if tr != nil {
		// The follower lags only while a write is in flight, so the traced
		// run samples replication status every millisecond.
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(time.Millisecond)
			defer t.Stop()
			for now := range t.C {
				if !now.Before(until) {
					return
				}
				if st := w.primary.srv.ReplicationStatus(); len(st.Followers) > 0 && st.Followers[0].Lag > w.lagMax.Load() {
					w.lagMax.Store(st.Followers[0].Lag)
				}
			}
		}()
	}
	stats := closedLoop(1, until, tr, "meshclient.BinaryClient.read", &win.m, func(_, _ int) (int, error) {
		k := w.readCounter
		w.readCounter++
		p := k % len(w.pairs)
		op := uint8(wire.OpRoute)
		if k%2 == 1 {
			op = wire.OpHasMinimalPath
		}
		lo := w.acked.Load()
		dg, err := askBinary(ctx, w.bin, op, w.pairs[p].Src, w.pairs[p].Dst)
		hi := w.sent.Load()
		w.readCalls++
		if isFailure(err) {
			return 0, err
		}
		w.reads = append(w.reads, churnRead{Pair: uint32(p), Op: op, Lo: int32(lo), Hi: int32(hi), Digest: dg})
		return 1, err
	})
	wg.Wait()
	res.Win = win.close()
	merge(res, stats)
	writes := int64(len(writeLat)) + writeFailed
	res.Attempted += writes + int64(len(rawLat)) + probeFailed
	res.Failed += writeFailed + probeFailed
	if res.FirstErr == nil {
		res.FirstErr = writeErr
	}
	res.Extra = append(res.Extra, tailLines("write", writeLat, "acknowledged writes, open loop from the due time")...)
	res.Extra = append(res.Extra, tailLines("read_after_write", rawLat, "first read after each acknowledged write")...)
	res.Extra = append(res.Extra, tailLines("bench.write_gen_lag", genLag, "how late the open-loop writer sent")...)
	return res, nil
}

// tailLines prints a latency sample as its median and the highest of
// p99/p90 that has at least minBeyond samples beyond it.
func tailLines(name string, lat []time.Duration, note string) []resultLine {
	s, err := summarize(lat, 0.99)
	if err != nil && len(lat) > 0 {
		s, err = summarize(lat, 0.9)
	}
	out := []resultLine{{Name: name + "_p50_us", Value: us(s.P50), Unit: "us", Note: fmt.Sprintf("n=%d, %s", s.N, note)}}
	if err != nil {
		return append(out, resultLine{Name: name + "_tail_us", Unit: "us", Note: "not reported: " + err.Error()})
	}
	return append(out, resultLine{Name: name + "_" + tailName(s.TailQ) + "_us", Value: us(s.Tail), Unit: "us", Note: fmt.Sprintf("n=%d", s.N)})
}

// check verifies every read against the library at a writer state it
// may legally have observed, every probe at exactly its write's state,
// and that both nodes hold identical state containing every
// acknowledged write.
func (w *churnWL) check() error {
	if len(w.writeErrs) > 0 {
		return fmt.Errorf("%d writes failed, so acknowledged state is ambiguous: %w", len(w.writeErrs), errors.Join(w.writeErrs...))
	}
	states := make([][]extmesh.Coord, len(w.events)+1)
	states[0] = w.faults
	for i, ev := range w.events {
		states[i+1] = applyEvent(states[i], ev)
	}
	oracles := map[int]*oracle{}
	oracleAt := func(i int) (*oracle, error) {
		if o, ok := oracles[i]; ok {
			return o, nil
		}
		o, err := newOracle(states[i])
		if err != nil {
			return nil, err
		}
		oracles[i] = o
		return o, nil
	}
	answer := func(o *oracle, op uint8, p extmesh.Pair) (uint64, error) {
		if op == wire.OpRoute {
			return o.routeDigest(p.Src, p.Dst, true)
		}
		return boolDigest(o.net.HasMinimalPath(p.Src, p.Dst)), nil
	}
	if len(w.reads) == 0 {
		return errors.New("no reads recorded")
	}
	// A probe is a read whose window is exactly its write's state.
	type item struct {
		churnRead
		pair extmesh.Pair
	}
	items := make([]item, 0, len(w.reads)+len(w.probeRecs))
	for _, r := range w.reads {
		items = append(items, item{r, w.pairs[r.Pair]})
	}
	for _, p := range w.probeRecs {
		items = append(items, item{churnRead{Pair: p.Pair, Op: wire.OpRoute, Lo: p.State, Hi: p.State, Digest: p.Digest}, w.probes[p.Pair]})
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].Lo < items[j].Lo })
	for _, r := range items {
		for i := range oracles {
			if i < int(r.Lo) {
				delete(oracles, i)
			}
		}
		matched := false
		for s := int(r.Lo); s <= int(r.Hi) && !matched; s++ {
			o, err := oracleAt(s)
			if err != nil {
				return err
			}
			want, err := answer(o, r.Op, r.pair)
			if err != nil {
				return err
			}
			matched = want == r.Digest
		}
		if !matched {
			return fmt.Errorf("read of %v -> %v (op %d) matches no writer state in [%d, %d]", r.pair.Src, r.pair.Dst, r.Op, r.Lo, r.Hi)
		}
	}
	return w.audit(states[len(states)-1])
}

// audit checks zero acknowledged-write loss: both nodes export
// byte-identical state, and the primary's fault set is exactly the one
// every acknowledged write produced.
func (w *churnWL) audit(want []extmesh.Coord) error {
	if err := w.waitCaughtUp(); err != nil {
		return err
	}
	a, err := w.primary.srv.ExportState()
	if err != nil {
		return err
	}
	b, err := w.follow.srv.ExportState()
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return errors.New("primary and follower state differ after catch-up")
	}
	d := w.primary.srv.Meshes().Get(meshName)
	if d == nil {
		return errors.New("mesh missing on the primary")
	}
	have := map[extmesh.Coord]bool{}
	for _, c := range d.Faults() {
		have[c] = true
	}
	if len(have) != len(want) {
		return fmt.Errorf("primary holds %d faults, acknowledged writes leave %d", len(have), len(want))
	}
	for _, c := range want {
		if !have[c] {
			return fmt.Errorf("acknowledged fault %v missing on the primary", c)
		}
	}
	return nil
}

func (w *churnWL) counters() counterSnap {
	s := counterSnap{BinaryTransport: true}
	serverCounters(&s, w.primary, "binary_latency")
	reachCounters(&s)
	cc := w.cluster.Primary().Counts()
	s.Attempts, s.Retries, s.ClientShed = cc.Attempts, cc.Retries, cc.Shed
	s.Calls = uint64(w.readCalls + w.probeCalls)
	s.ReplLagMaxRecords = w.lagMax.Load()
	return s
}

func (w *churnWL) target() (*replayTarget, error) {
	d := w.primary.srv.Meshes().Get(meshName)
	if d == nil {
		return nil, errors.New("mesh missing on the primary")
	}
	reqs := make([]replayReq, 0, replaySample)
	for i, p := range w.pairs[:replaySample] {
		op := uint8(wire.OpRoute)
		if i%2 == 1 {
			op = wire.OpHasMinimalPath
		}
		reqs = append(reqs, replayReq{Op: op, Src: p.Src, Dst: p.Dst})
	}
	return &replayTarget{node: w.primary, d: d, reqs: reqs, binary: true}, nil
}

func (w *churnWL) close() {
	if w.bin != nil {
		w.bin.Close()
	}
	if w.primary != nil {
		w.primary.stop()
	}
	if w.follow != nil {
		w.follow.stop()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}
