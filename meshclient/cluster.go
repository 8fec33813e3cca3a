package meshclient

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// ClusterOptions configures a ClusterClient over one primary and any
// number of read replicas.
type ClusterOptions struct {
	// Primary is the base URL of the node believed primary at startup:
	// writes start here, and reads fall back here when no replica can
	// answer acceptably. After a failover the client rediscovers the
	// new primary among all configured nodes on its own.
	Primary string
	// Replicas are the read replicas' base URLs.
	Replicas []string
	// MaxStalenessRecords bounds how far (in journal records) a replica
	// answer may lag the newest sequence number this client has
	// observed. 0 — the default — demands read-your-writes: a replica
	// must have applied everything this client has seen acknowledged.
	MaxStalenessRecords uint64
	// EvictThreshold is how many consecutive stale rejections a replica
	// may accumulate before it is dropped from the read rotation for
	// EvictCooldown — a replica that lags every probe is wasting a
	// round-trip per read. 0 selects 3; negative disables eviction.
	EvictThreshold int
	// EvictCooldown is how long an evicted replica sits out of the
	// rotation; 0 selects 2s.
	EvictCooldown time.Duration
	// Node templates each per-node client; its BaseURL is ignored.
	Node Options
}

// ClusterCounts is the cluster-level accounting: how reads spread,
// failed over, and fell back, and how writes chased the primary.
type ClusterCounts struct {
	Reads          uint64 // read calls into the cluster client
	Writes         uint64 // write calls (routed to the current primary)
	PrimaryReads   uint64 // reads ultimately answered by the primary
	Failovers      uint64 // node switches after an error mid-read
	StaleRejects   uint64 // replica answers rejected for lagging the watermark
	BreakerSkips   uint64 // replicas skipped up front: breaker open
	EvictSkips     uint64 // replicas skipped up front: evicted for staleness
	StaleEvictions uint64 // replicas evicted after EvictThreshold stale answers
	Rediscoveries  uint64 // primary re-elections this client followed
}

// clusterNode is one configured node: its client plus the staleness
// accounting that drives read-rotation eviction.
type clusterNode struct {
	client *Client
	addr   string

	staleStreak  atomic.Int64
	evictedUntil atomic.Int64 // unixnano; 0 = in rotation
}

func (n *clusterNode) evicted(now time.Time) bool {
	return now.UnixNano() < n.evictedUntil.Load()
}

// ClusterClient spreads reads across replicas round-robin, skips and
// fails over tripped, evicted or erroring nodes, bounds read staleness
// via the X-Journal-Seq watermark, and routes every write to the
// current primary.
//
// The watermark is the newest journal sequence number observed on any
// accepted response (writes and reads alike), so the guarantee is
// session-monotonic: once this client has seen state at sequence S, it
// never accepts an answer older than S - MaxStalenessRecords.
//
// Failover-aware writes: the client stamps every write with the highest
// cluster epoch it has observed (X-Cluster-Epoch), so a zombie
// ex-primary refuses it instead of diverging. When a write is refused —
// read_only, fenced, stale_epoch — or the primary is unreachable, the
// client probes every configured node's GET /replication, follows the
// strongest primary claimant (highest epoch, then node ID), and resends
// the write once if the original failure guarantees it never applied.
type ClusterClient struct {
	Endpoints // reads via DoRead, writes via DoWrite

	nodes      []*clusterNode // [0] = configured primary, then replicas
	primaryIdx atomic.Int64
	opts       ClusterOptions

	next      atomic.Uint64 // round-robin cursor
	watermark atomic.Uint64
	epoch     atomic.Uint64

	reads, writes, primaryReads       atomic.Uint64
	failovers, staleRejects, breakers atomic.Uint64
	evictSkips, staleEvictions        atomic.Uint64
	rediscoveries                     atomic.Uint64
}

// NewCluster assembles a cluster client.
func NewCluster(opts ClusterOptions) (*ClusterClient, error) {
	if opts.Primary == "" {
		return nil, fmt.Errorf("meshclient: cluster needs a primary URL")
	}
	if opts.EvictThreshold == 0 {
		opts.EvictThreshold = 3
	}
	if opts.EvictCooldown <= 0 {
		opts.EvictCooldown = 2 * time.Second
	}
	c := &ClusterClient{opts: opts}
	c.Endpoints = Endpoints{
		read: func(ctx context.Context, method, path string, body []byte, _ bool) (*Response, error) {
			return c.DoRead(ctx, method, path, body) // every read is idempotent
		},
		write: c.DoWrite,
	}
	for _, addr := range append([]string{opts.Primary}, opts.Replicas...) {
		o := opts.Node
		o.BaseURL = addr
		cl, err := New(o)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, &clusterNode{client: cl, addr: addr})
	}
	return c, nil
}

// Primary exposes the current primary's node client. The identity
// changes when rediscovery follows a failover.
func (c *ClusterClient) Primary() *Client { return c.primaryNode().client }

// PrimaryAddr returns the base URL of the node currently treated as
// primary.
func (c *ClusterClient) PrimaryAddr() string { return c.primaryNode().addr }

func (c *ClusterClient) primaryNode() *clusterNode {
	return c.nodes[int(c.primaryIdx.Load())%len(c.nodes)]
}

// ReplicaClients exposes the per-replica node clients in option order
// (the initially configured replicas, regardless of later failovers).
func (c *ClusterClient) ReplicaClients() []*Client {
	out := make([]*Client, 0, len(c.nodes)-1)
	for _, n := range c.nodes[1:] {
		out = append(out, n.client)
	}
	return out
}

// Counts returns the cluster-level accounting so far.
func (c *ClusterClient) Counts() ClusterCounts {
	return ClusterCounts{
		Reads:          c.reads.Load(),
		Writes:         c.writes.Load(),
		PrimaryReads:   c.primaryReads.Load(),
		Failovers:      c.failovers.Load(),
		StaleRejects:   c.staleRejects.Load(),
		BreakerSkips:   c.breakers.Load(),
		EvictSkips:     c.evictSkips.Load(),
		StaleEvictions: c.staleEvictions.Load(),
		Rediscoveries:  c.rediscoveries.Load(),
	}
}

// Watermark returns the newest journal sequence number this client has
// observed on an accepted response.
func (c *ClusterClient) Watermark() uint64 { return c.watermark.Load() }

// Epoch returns the highest cluster epoch this client has observed.
func (c *ClusterClient) Epoch() uint64 { return c.epoch.Load() }

// observe raises the watermark and epoch to the response's (monotonic).
func (c *ClusterClient) observe(resp *Response) {
	if resp == nil {
		return
	}
	if resp.HasJournalSeq {
		raise(&c.watermark, resp.JournalSeq)
	}
	if resp.HasEpoch {
		raise(&c.epoch, resp.Epoch)
	}
}

func raise(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// fresh reports whether a replica response satisfies the staleness
// bound. Responses without the header (pre-replication servers) are
// accepted — there is no watermark protocol to hold them to.
func (c *ClusterClient) fresh(resp *Response) bool {
	if resp == nil || !resp.HasJournalSeq {
		return true
	}
	return resp.JournalSeq+c.opts.MaxStalenessRecords >= c.watermark.Load()
}

// noteStale charges node with one stale answer; EvictThreshold in a
// row drop it from the read rotation for EvictCooldown.
func (c *ClusterClient) noteStale(node *clusterNode) {
	c.staleRejects.Add(1)
	if c.opts.EvictThreshold < 0 {
		return
	}
	if node.staleStreak.Add(1) >= int64(c.opts.EvictThreshold) {
		node.staleStreak.Store(0)
		node.evictedUntil.Store(time.Now().Add(c.opts.EvictCooldown).UnixNano())
		c.staleEvictions.Add(1)
	}
}

// DoWrite performs a mutation against the current primary, stamped with
// the client's observed epoch. idempotent follows Client.Do's contract.
// On a failover-class refusal or an unreachable primary it rediscovers
// the primary and — only when the original failure guarantees the write
// never applied (a typed refusal, a dial failure, or any failure of an
// idempotent call) — resends once. The response's sequence number
// becomes the cluster watermark, so subsequent reads observe this write.
func (c *ClusterClient) DoWrite(ctx context.Context, method, path string, body []byte, idempotent bool) (*Response, error) {
	c.writes.Add(1)
	resp, err := c.writeOnce(ctx, method, path, body, idempotent)
	if err == nil {
		return resp, nil
	}
	if ctx.Err() != nil || !writeNeedsRediscovery(resp, err) {
		return resp, err
	}
	if !c.Rediscover(ctx) || !writeSafeToResend(resp, err, idempotent) {
		return resp, err
	}
	return c.writeOnce(ctx, method, path, body, idempotent)
}

func (c *ClusterClient) writeOnce(ctx context.Context, method, path string, body []byte, idempotent bool) (*Response, error) {
	var hdr http.Header
	if e := c.epoch.Load(); e > 0 {
		hdr = http.Header{"X-Cluster-Epoch": []string{fmt.Sprintf("%d", e)}}
	}
	resp, err := c.primaryNode().client.DoWithHeader(ctx, method, path, body, idempotent, hdr)
	c.observe(resp) // even refusals carry the node's seq and epoch
	return resp, err
}

// writeNeedsRediscovery classifies a failed write: did it fail in a way
// that suggests this node is no longer the primary?
func writeNeedsRediscovery(resp *Response, err error) bool {
	if resp == nil {
		return true // transport failure or open breaker: probe the others
	}
	switch resp.ErrorCode {
	case "read_only", "fenced", "stale_epoch", "replication_unconfirmed":
		return true
	}
	return resp.Status >= 500
}

// writeSafeToResend reports whether the failed write is guaranteed not
// to have applied on the old primary, making a resend on the new one
// exactly-once safe: typed refusals reject before touching state, dial
// failures never left this host, and idempotent calls replay by
// definition. Everything else (e.g. replication_unconfirmed, a mid-body
// transport error) is ambiguous and surfaces to the caller.
func writeSafeToResend(resp *Response, err error, idempotent bool) bool {
	if idempotent {
		return true
	}
	if resp != nil {
		switch resp.ErrorCode {
		case "read_only", "fenced", "stale_epoch":
			return true
		}
		return false
	}
	return isDialError(err)
}

// replicationInfo is the slice of GET /replication the client needs.
type replicationInfo struct {
	Role   string `json:"role"`
	NodeID string `json:"node_id"`
	Epoch  uint64 `json:"epoch"`
}

// Rediscover probes every configured node's GET /replication and
// follows the strongest primary claimant: highest epoch, node ID
// breaking ties — the same deterministic order the cluster itself
// promotes by. Claimants below the client's observed epoch are ignored
// (a zombie still calling itself primary). Reports whether a primary
// was found.
func (c *ClusterClient) Rediscover(ctx context.Context) bool {
	best := -1
	var bestInfo replicationInfo
	for i, node := range c.nodes {
		resp, err := node.client.Do(ctx, http.MethodGet, "/replication", nil, true)
		if err != nil || resp.Status != http.StatusOK {
			continue
		}
		var info replicationInfo
		if json.Unmarshal(resp.Body, &info) != nil || info.Role != "primary" {
			continue
		}
		if info.Epoch < c.epoch.Load() {
			continue
		}
		if best < 0 || info.Epoch > bestInfo.Epoch ||
			(info.Epoch == bestInfo.Epoch && info.NodeID > bestInfo.NodeID) {
			best, bestInfo = i, info
		}
	}
	if best < 0 {
		return false
	}
	raise(&c.epoch, bestInfo.Epoch)
	if int(c.primaryIdx.Load()) != best {
		c.primaryIdx.Store(int64(best))
		c.rediscoveries.Add(1)
	}
	return true
}

// DoRead performs a read, trying non-primary nodes round-robin and
// falling back to the primary. A replica answer is accepted only when
// it is fresh (within MaxStalenessRecords of the watermark); stale
// answers — including stale 404s, which may simply not have seen a
// recent create — fail over to the next node and count toward the
// replica's eviction streak. Transport errors, 5xx, open breakers and
// evicted nodes fail over likewise. 4xx answers from a fresh node are
// genuine and returned as-is.
func (c *ClusterClient) DoRead(ctx context.Context, method, path string, body []byte) (*Response, error) {
	c.reads.Add(1)
	now := time.Now()
	primary := int(c.primaryIdx.Load()) % len(c.nodes)
	var rotation []*clusterNode
	for i := range c.nodes {
		if i != primary {
			rotation = append(rotation, c.nodes[i])
		}
	}
	n := len(rotation)
	start := 0
	if n > 0 {
		start = int(c.next.Add(1)-1) % n
	}
	var lastResp *Response
	var lastErr error
	tried := false
	for i := 0; i < n; i++ {
		node := rotation[(start+i)%n]
		if node.client.BreakerOpen() {
			c.breakers.Add(1)
			continue
		}
		if node.evicted(now) {
			c.evictSkips.Add(1)
			continue
		}
		if tried {
			c.failovers.Add(1)
		}
		tried = true
		resp, err := node.client.Do(ctx, method, path, body, true)
		if ctx.Err() != nil {
			return resp, err
		}
		switch {
		case err == nil:
			if c.fresh(resp) {
				node.staleStreak.Store(0)
				c.observe(resp)
				return resp, nil
			}
			c.noteStale(node)
			lastResp, lastErr = resp, nil
		case resp != nil && resp.Status < 500 && resp.Status != http.StatusTooManyRequests:
			// A definite 4xx — but a replica that has not caught up
			// answers 404 for meshes it has never seen, so a stale 4xx
			// fails over instead of being trusted.
			if c.fresh(resp) {
				node.staleStreak.Store(0)
				c.observe(resp)
				return resp, err
			}
			c.noteStale(node)
			lastResp, lastErr = resp, err
		default:
			lastResp, lastErr = resp, err
		}
	}
	if tried {
		c.failovers.Add(1)
	}
	c.primaryReads.Add(1)
	resp, err := c.primaryNode().client.Do(ctx, method, path, body, true)
	if err == nil || resp != nil {
		c.observe(resp)
		return resp, err
	}
	// The primary is down too; surface the most informative failure.
	if lastErr != nil || lastResp != nil {
		return lastResp, lastErr
	}
	return resp, err
}

// Ready reports whether the current primary has finished recovery.
func (c *ClusterClient) Ready(ctx context.Context) (bool, error) {
	return c.Primary().Ready(ctx)
}

// IsNotFound reports whether err is the server's 404 answer.
func IsNotFound(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound
}
