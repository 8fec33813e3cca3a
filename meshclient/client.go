// Package meshclient is the typed, resilient client for a meshserved
// daemon: every query, batch and admin endpoint behind per-request
// timeouts, exponential backoff with jitter that honors the server's
// Retry-After hints, a circuit breaker, and idempotency-aware retry
// rules.
//
// Retry semantics follow the server's admission contract: a 429 means
// the server shed the request before doing any work, so it is always
// safe to retry; a 5xx or transport error is retried only for
// idempotent calls (all queries; PUT uploads), because a mutation
// whose response was lost may have applied. Dial failures — the
// connection never left this host — are retried for every call.
package meshclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"extmesh/internal/wire"
)

// Options configures a Client. The zero value (plus BaseURL) gives
// conservative production defaults.
type Options struct {
	// BaseURL is the daemon root, e.g. "http://localhost:8423".
	BaseURL string

	// HTTPClient overrides the assembled client entirely; when set,
	// the timeout fields below are ignored.
	HTTPClient *http.Client
	// Transport overrides the transport of the assembled client —
	// the hook the chaos harness uses.
	Transport http.RoundTripper

	// DialTimeout bounds TCP connection establishment; 0 selects 2s.
	DialTimeout time.Duration
	// ResponseHeaderTimeout bounds the wait for response headers after
	// the request is written; 0 selects 10s.
	ResponseHeaderTimeout time.Duration
	// AttemptTimeout bounds one full attempt (dial, write, read);
	// 0 selects 30s. The caller's context bounds the whole call
	// including retries.
	AttemptTimeout time.Duration

	// MaxRetries is how many times a failed attempt is retried
	// (total attempts = MaxRetries+1); 0 selects 3, negative disables
	// retries.
	MaxRetries int
	// BaseBackoff is the first retry delay, doubled each retry;
	// 0 selects 25ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the computed delay; 0 selects 1s.
	MaxBackoff time.Duration
	// RetryAfterCap bounds how long a server Retry-After hint is
	// honored; 0 selects 5s.
	RetryAfterCap time.Duration
	// RetrySeed seeds the jitter PRNG, so tests and load drivers are
	// reproducible; 0 selects 1.
	RetrySeed int64

	// BreakerThreshold opens the circuit breaker after this many
	// consecutive failed attempts; 0 selects 16, negative disables
	// the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before
	// admitting a half-open probe; 0 selects 500ms.
	BreakerCooldown time.Duration
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.ResponseHeaderTimeout <= 0 {
		o.ResponseHeaderTimeout = 10 * time.Second
	}
	if o.AttemptTimeout <= 0 {
		o.AttemptTimeout = 30 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 25 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = time.Second
	}
	if o.RetryAfterCap <= 0 {
		o.RetryAfterCap = 5 * time.Second
	}
	if o.RetrySeed == 0 {
		o.RetrySeed = 1
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 16
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 500 * time.Millisecond
	}
	return o
}

// ErrCircuitOpen is returned (wrapped) while the circuit breaker is
// open: the server failed repeatedly and the client is giving it
// BreakerCooldown of quiet before probing again.
var ErrCircuitOpen = errors.New("meshclient: circuit breaker open")

// APIError is a non-2xx response from the server that was not (or
// could no longer be) retried. Code is the server's machine-readable
// discriminator ("read_only", "fenced", "stale_epoch",
// "replication_unconfirmed"), empty for plain errors.
type APIError struct {
	Status  int
	Message string
	Code    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("meshclient: server returned %d: %s", e.Status, e.Message)
}

// Counts is a snapshot of the client's attempt-level accounting.
type Counts struct {
	Requests         uint64 // calls into the client
	Attempts         uint64 // HTTP attempts (>= Requests when retrying)
	Retries          uint64 // attempts beyond a call's first
	Shed             uint64 // 429 responses observed (attempt level)
	NetErrors        uint64 // transport or body-read failures observed
	ServerErrors     uint64 // 5xx responses observed
	BreakerFastFails uint64 // calls rejected while the breaker was open
	BreakerOpens     uint64 // closed→open transitions (incl. failed probes re-opening)
	BreakerProbes    uint64 // half-open probes admitted
}

// Client is a resilient meshserved client. All methods are safe for
// concurrent use; one Client shares one connection pool, one breaker
// and one jitter stream.
type Client struct {
	Endpoints

	base string
	http *http.Client
	opts Options

	mu  sync.Mutex // guards rng
	rng *rand.Rand

	breaker breaker

	requests, attempts, retries   atomic.Uint64
	shed, netErrors, serverErrors atomic.Uint64
	breakerFastFails              atomic.Uint64
}

// New assembles a client for the daemon at opts.BaseURL.
func New(opts Options) (*Client, error) {
	opts = opts.withDefaults()
	base := strings.TrimSuffix(opts.BaseURL, "/")
	u, err := url.Parse(base)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("meshclient: invalid base URL %q", opts.BaseURL)
	}
	hc := opts.HTTPClient
	if hc == nil {
		var rt http.RoundTripper
		if opts.Transport != nil {
			rt = opts.Transport
		} else {
			rt = &http.Transport{
				DialContext:           (&net.Dialer{Timeout: opts.DialTimeout}).DialContext,
				ResponseHeaderTimeout: opts.ResponseHeaderTimeout,
				MaxIdleConns:          256,
				MaxIdleConnsPerHost:   256,
				IdleConnTimeout:       90 * time.Second,
			}
		}
		// No flat Client.Timeout: the per-attempt context carries the
		// deadline, so a retried call is not charged for prior attempts.
		hc = &http.Client{Transport: rt}
	}
	c := &Client{
		base: base,
		http: hc,
		opts: opts,
		rng:  rand.New(rand.NewSource(opts.RetrySeed)),
	}
	c.Endpoints = Endpoints{read: c.Do, write: c.Do}
	c.breaker.threshold = opts.BreakerThreshold
	c.breaker.cooldown = opts.BreakerCooldown
	// The breaker's half-open horizon is jittered from its own seeded
	// stream, so a fleet of clients tripped by the same outage does not
	// probe the recovering server in lockstep.
	c.breaker.rng = rand.New(rand.NewSource(opts.RetrySeed + 0x9E3779B9))
	return c, nil
}

// Counts returns the attempt-level accounting so far.
func (c *Client) Counts() Counts {
	opens, probes := c.breaker.counts()
	return Counts{
		Requests:         c.requests.Load(),
		Attempts:         c.attempts.Load(),
		Retries:          c.retries.Load(),
		Shed:             c.shed.Load(),
		NetErrors:        c.netErrors.Load(),
		ServerErrors:     c.serverErrors.Load(),
		BreakerFastFails: c.breakerFastFails.Load(),
		BreakerOpens:     opens,
		BreakerProbes:    probes,
	}
}

// BreakerOpen reports whether the circuit breaker is currently inside
// its cooldown — rejecting calls without probing. Cluster routing uses
// it to steer reads away from a tripped node.
func (c *Client) BreakerOpen() bool {
	b := &c.breaker
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open && time.Now().Before(b.openUntil)
}

// Response is the raw outcome of Do: the status and the fully read
// body. Helpers decode it; load drivers discard it.
type Response struct {
	Status int
	Body   []byte

	// JournalSeq is the server's X-Journal-Seq header: the durable
	// sequence number the response was answered at. HasJournalSeq
	// distinguishes "seq 0" from "header absent" (a pre-replication
	// server). Cluster reads bound staleness with it.
	JournalSeq    uint64
	HasJournalSeq bool

	// Epoch is the server's X-Cluster-Epoch header — the cluster epoch
	// the response was answered under. Cluster clients track the
	// highest epoch observed and stamp it on writes, which is what lets
	// a zombie ex-primary reject them as stale.
	Epoch    uint64
	HasEpoch bool

	// ErrorCode is the machine-readable code of a non-2xx body, if any.
	ErrorCode string

	retryAfter string // Retry-After header, if any
	errMsg     string // the error message of a non-2xx body
}

// maxResponseBytes bounds a response body read, mirroring the server's
// own request cap.
const maxResponseBytes = 32 << 20

// Do performs one API call with the client's full retry policy.
// idempotent marks calls safe to replay after an ambiguous failure
// (the request may have reached the server): all queries are, mutating
// POSTs are not. Non-idempotent calls still retry 429s (shed before
// any work) and dial failures (never sent).
//
// A 2xx returns (resp, nil); any other final status returns the
// *APIError alongside the response.
func (c *Client) Do(ctx context.Context, method, path string, body []byte, idempotent bool) (*Response, error) {
	return c.DoWithHeader(ctx, method, path, body, idempotent, nil)
}

// DoWithHeader is Do with extra request headers applied to every
// attempt — the hook cluster clients use to stamp X-Cluster-Epoch on
// writes.
func (c *Client) DoWithHeader(ctx context.Context, method, path string, body []byte, idempotent bool, hdr http.Header) (*Response, error) {
	c.requests.Add(1)
	var lastErr error
	maxAttempts := 1 + c.opts.MaxRetries
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
		}
		if !c.breaker.allow(time.Now()) {
			c.breakerFastFails.Add(1)
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last error: %v)", ErrCircuitOpen, lastErr)
			}
			return nil, ErrCircuitOpen
		}

		resp, retryable, err := c.attempt(ctx, method, path, body, idempotent, hdr)
		if err == nil && resp.Status < 300 {
			return resp, nil
		}
		var delay time.Duration
		if err != nil {
			lastErr = err
		} else {
			apiErr := &APIError{Status: resp.Status, Message: resp.errMsg, Code: resp.ErrorCode}
			lastErr = apiErr
			if !retryable || attempt == maxAttempts-1 {
				return resp, apiErr
			}
			delay = c.retryAfterHint(resp)
		}
		if !retryable || attempt == maxAttempts-1 {
			break
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if err := c.sleep(ctx, c.backoff(attempt, delay)); err != nil {
			return nil, err
		}
	}
	return nil, lastErr
}

// Ready polls /readyz; true once the server has finished recovery.
func (c *Client) Ready(ctx context.Context) (bool, error) {
	resp, err := c.Do(ctx, http.MethodGet, "/readyz", nil, true)
	if err != nil {
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusServiceUnavailable {
			return false, nil
		}
		return false, err
	}
	return resp.Status == http.StatusOK, nil
}

// Healthy polls /healthz liveness.
func (c *Client) Healthy(ctx context.Context) error {
	return call(ctx, c.Do, http.MethodGet, "/healthz", nil, true, nil)
}

// attempt runs one HTTP exchange and classifies the outcome.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, idempotent bool, hdr http.Header) (*Response, bool, error) {
	actx, cancel := context.WithTimeout(ctx, c.opts.AttemptTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.base+path, rd)
	if err != nil {
		return nil, false, fmt.Errorf("meshclient: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	c.attempts.Add(1)

	httpResp, err := c.http.Do(req)
	if err != nil {
		c.netErrors.Add(1)
		c.breaker.onFailure(time.Now())
		// If the caller's own context ended, stop retrying regardless.
		if ctx.Err() != nil {
			return nil, false, ctx.Err()
		}
		return nil, idempotent || isDialError(err), fmt.Errorf("meshclient: %w", err)
	}
	data, rerr := io.ReadAll(io.LimitReader(httpResp.Body, maxResponseBytes))
	io.Copy(io.Discard, httpResp.Body) // drain any chaos-truncated remainder
	httpResp.Body.Close()
	if rerr != nil {
		// Mid-body reset: the exchange reached the server, so only
		// idempotent calls may replay it.
		c.netErrors.Add(1)
		c.breaker.onFailure(time.Now())
		if ctx.Err() != nil {
			return nil, false, ctx.Err()
		}
		return nil, idempotent, fmt.Errorf("meshclient: read response: %w", rerr)
	}

	resp := &Response{Status: httpResp.StatusCode, Body: data}
	resp.retryAfter = httpResp.Header.Get("Retry-After")
	if v := httpResp.Header.Get("X-Journal-Seq"); v != "" {
		if seq, perr := strconv.ParseUint(v, 10, 64); perr == nil {
			resp.JournalSeq, resp.HasJournalSeq = seq, true
		}
	}
	if v := httpResp.Header.Get("X-Cluster-Epoch"); v != "" {
		if e, perr := strconv.ParseUint(v, 10, 64); perr == nil {
			resp.Epoch, resp.HasEpoch = e, true
		}
	}
	if resp.Status >= 300 {
		resp.errMsg, resp.ErrorCode = parseError(data)
	}
	switch {
	case resp.Status < 300:
		c.breaker.onSuccess()
		return resp, false, nil
	case resp.Status == http.StatusTooManyRequests:
		// Shed before any work: always retryable, and proof the server
		// is alive — not a breaker failure.
		c.shed.Add(1)
		c.breaker.onSuccess()
		return resp, true, nil
	case resp.Status >= 500:
		c.serverErrors.Add(1)
		c.breaker.onFailure(time.Now())
		return resp, idempotent, nil
	default:
		// A plain 4xx is a correct answer to a bad request.
		c.breaker.onSuccess()
		return resp, false, nil
	}
}

// retryAfterHint parses the response's Retry-After seconds, capped by
// RetryAfterCap; zero when absent or malformed.
func (c *Client) retryAfterHint(resp *Response) time.Duration {
	if resp == nil || resp.retryAfter == "" {
		return 0
	}
	secs, err := strconv.Atoi(resp.retryAfter)
	if err != nil || secs < 0 {
		return 0
	}
	d := time.Duration(secs) * time.Second
	if d > c.opts.RetryAfterCap {
		d = c.opts.RetryAfterCap
	}
	return d
}

// backoff computes the delay before retry number attempt+1. A server
// Retry-After hint takes precedence over the exponential schedule
// outright — the server knows its own queue depth, so when it says
// "come back in 1s" the client neither returns early (hammering a
// shedding server) nor pads the hint with schedule it has outgrown.
// Hintless failures use the blind schedule. Both get up to 50% jitter
// so a shed fleet does not retry in lockstep.
func (c *Client) backoff(attempt int, hint time.Duration) time.Duration {
	d := hint
	if d <= 0 {
		d = c.opts.BaseBackoff << uint(attempt)
		if d > c.opts.MaxBackoff || d <= 0 {
			d = c.opts.MaxBackoff
		}
	}
	c.mu.Lock()
	jitter := time.Duration(c.rng.Int63n(int64(d)/2 + 1))
	c.mu.Unlock()
	return d + jitter
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// isDialError reports whether the exchange failed before the request
// could have reached the server, making even non-idempotent calls safe
// to retry.
func isDialError(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// parseError extracts the message and code of the server's error body,
// falling back to the raw text for the message.
func parseError(body []byte) (msg, code string) {
	var e wire.ErrorBody
	if json.Unmarshal(body, &e) != nil {
		e = wire.ErrorBody{}
	}
	if e.Error != "" {
		return e.Error, e.Code
	}
	msg = strings.TrimSpace(string(body))
	if len(msg) > 200 {
		msg = msg[:200] + "..."
	}
	return msg, e.Code
}

// breaker is a consecutive-failure circuit breaker: threshold failures
// in a row open it for cooldown (plus up to 50% jitter, so tripped
// clients do not probe in lockstep), after which a single half-open
// probe decides whether to close it again.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	rng       *rand.Rand // jitters the reopen horizon; nil disables jitter
	failures  int
	open      bool
	openUntil time.Time
	probing   bool
	opens     uint64
	probes    uint64
}

func (b *breaker) allow(now time.Time) bool {
	if b.threshold <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if now.Before(b.openUntil) {
		return false
	}
	if b.probing {
		return false // one probe at a time
	}
	b.probing = true
	b.probes++
	return true
}

func (b *breaker) onSuccess() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	b.failures = 0
	b.open = false
	b.probing = false
	b.mu.Unlock()
}

func (b *breaker) onFailure(now time.Time) {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	wasProbe := b.probing
	b.failures++
	b.probing = false
	if b.failures >= b.threshold {
		if !b.open || wasProbe {
			b.opens++ // a fresh trip or a failed probe re-arming the cooldown
		}
		b.open = true
		d := b.cooldown
		if b.rng != nil {
			d += time.Duration(b.rng.Int63n(int64(b.cooldown)/2 + 1))
		}
		b.openUntil = now.Add(d)
	}
	b.mu.Unlock()
}

func (b *breaker) counts() (opens, probes uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens, b.probes
}
