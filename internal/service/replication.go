package service

// Factor replication and owner-failure takeover. A key lives on its
// holders (cluster.holders): the owner builds, and only the owner pushes
// the gob-encoded factor to its R successors, so an owner's death is
// absorbed by HRW itself — the first successor, already holding the
// bytes, becomes the new owner the moment the view writes the old one
// off, and a solve there is a cache hit, not a rebuild. Pushes go
// through one pending queue: a build, a view change and a failed push
// all mark the key, and one drain (retryPendingReplicas) pushes it.
//
// This file is under the errdrop analyzer's strict cluster boundary:
// every error from the net/http, io and encoding layers must be handled
// (Close excepted) — a silently dropped replica push is a silently lost
// recovery path.

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"time"
)

// Entry provenance: how a cached factorization got here. Takeover
// counting keys off it — a key this daemon owns but imported from a peer
// means the previous owner is gone.
const (
	originLocal   = "local"   // built by this daemon
	originPeer    = "peer"    // fetched on demand from the then-owner
	originReplica = "replica" // pushed proactively by the owner
)

// peerStatusError is a peer HTTP answer with a non-success status; the
// code drives the transient-vs-permanent retry split.
type peerStatusError struct {
	peer string
	op   string
	code int
}

func (e *peerStatusError) Error() string {
	return fmt.Sprintf("service: peer %s answered %d to %s", e.peer, e.code, e.op)
}

// transientFetchErr splits peer-operation failures into transient (worth
// one bounded retry: transport errors, overload and server-side
// statuses) and permanent (auth rejection, config mismatch, malformed
// request — retrying cannot help). A clean miss is neither: the peer
// answered.
func transientFetchErr(err error) bool {
	if err == nil || errors.Is(err, errPeerMiss) {
		return false
	}
	var se *peerStatusError
	if errors.As(err, &se) {
		return se.code == http.StatusTooManyRequests || se.code >= 500
	}
	// Transport-level: dial refused, connection reset, timeout — the
	// classic shapes of a daemon mid-restart or a dropped packet.
	return true
}

const (
	fetchRetryBase = 25 * time.Millisecond
	fetchRetryMax  = 250 * time.Millisecond
)

// retryBackoff picks the pause before the one retried peer operation:
// the peer breaker's retry-after hint when one is pending (the breaker
// already knows when the peer is worth probing again), otherwise a
// jittered slice around the base so colliding fetchers don't retry in
// lock-step. Always bounded by fetchRetryMax.
func (cl *cluster) retryBackoff(peer string) time.Duration {
	base := fetchRetryBase
	cl.mu.Lock()
	if hint, ok := cl.brk.retryAfter(peer); ok && hint > 0 && hint < fetchRetryMax {
		base = hint
	}
	jitter := time.Duration(cl.rng.Int63n(int64(base)))
	cl.mu.Unlock()
	d := base/2 + jitter
	if d > fetchRetryMax {
		d = fetchRetryMax
	}
	return d
}

// getFactorRetry is getFactor plus the bounded retry: one extra attempt,
// only on a transient failure, after a jittered backoff.
func (cl *cluster) getFactorRetry(peer, key string) ([]byte, error) {
	data, err := cl.getFactor(peer, key)
	if err == nil || !transientFetchErr(err) {
		return data, err
	}
	cl.fetchRetries.Add(1)
	time.Sleep(cl.retryBackoff(peer))
	return cl.getFactor(peer, key)
}

// peerFetch is the part of the holder walk that asks peers: every holder
// of key but this daemon, in rank order over the live view. A clean miss
// or a failure of any kind (breaker open, transport, decode mismatch)
// moves on to the next holder; false means none could serve, and the
// caller falls back to a local build or ErrUnknownMatrix.
func (s *Server) peerFetch(key string) (*entry, bool) {
	cl := s.cluster
	if cl == nil {
		return nil, false
	}
	for _, peer := range cl.holders(key) {
		if peer == cl.self || !cl.allow(peer) {
			continue
		}
		cl.fetches.Add(1)
		data, err := cl.getFactorRetry(peer, key)
		if errors.Is(err, errPeerMiss) {
			cl.fetchMisses.Add(1)
			cl.peerUp(peer)
			continue
		}
		if err != nil {
			cl.fetchFailures.Add(1)
			cl.peerDown(peer)
			continue
		}
		cl.peerUp(peer)
		ent, err := s.importFactor(key, data)
		if err != nil {
			cl.fetchFailures.Add(1)
			continue
		}
		ent.origin = originPeer
		cl.fetchHits.Add(1)
		cl.logf("factor %s: fetched from %s", key, peer)
		return ent, true
	}
	return nil, false
}

// push POSTs an encoded body to one holder: a forwarded matrix or a
// factor replica.
func (cl *cluster) push(peer, path, op string, body []byte) error {
	ctx, cancel := context.WithTimeout(context.Background(), cl.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	cl.authorize(req)
	resp, err := cl.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &peerStatusError{peer: peer, op: op, code: resp.StatusCode}
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("service: draining %s answer from %s: %w", op, peer, err)
	}
	return nil
}

// pushReplicas sends ent to the other current holders of its key — the
// owner's successors — and reports whether every push landed.
// Block-Jacobi entries are not exportable and count as landed: they are
// the cheap rung, not worth protecting.
func (s *Server) pushReplicas(ent *entry) bool {
	cl := s.cluster
	wf, err := wireOfEntry(ent, s.cfg)
	if err != nil {
		return true
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wf); err != nil {
		cl.replicaPushFailures.Add(1)
		return false
	}
	var pushed, missed []string
	for _, peer := range cl.holders(ent.key) {
		if peer == cl.self {
			continue
		}
		if !cl.allow(peer) {
			missed = append(missed, peer)
			continue
		}
		if err := cl.push(peer, "/v1/peer/replica/"+url.PathEscape(ent.key), "replica push", buf.Bytes()); err != nil {
			cl.replicaPushFailures.Add(1)
			cl.peerDown(peer)
			missed = append(missed, peer)
			continue
		}
		cl.replicasPushed.Add(1)
		cl.peerUp(peer)
		pushed = append(pushed, peer)
	}
	cl.logf("replica %s: pushed to %v, pending for %v", ent.key, pushed, missed)
	return len(missed) == 0
}

// queueReplica follows a local build: the owner marks the key pending
// and drains the queue off the request path; a non-owner's fallback
// build is never pushed.
func (s *Server) queueReplica(key string, owner bool) {
	cl := s.cluster
	if !owner {
		cl.logf("replica %s: skipped-not-owner (fallback build)", key)
		return
	}
	if cl.replicas <= 0 {
		return
	}
	cl.mu.Lock()
	cl.pending[key] = true
	cl.mu.Unlock()
	cl.logf("replica %s: owner build, marked pending", key)
	s.replWG.Add(1)
	go func() {
		defer s.replWG.Done()
		s.retryPendingReplicas()
	}()
}

// retryPendingReplicas is the one replica drain: it pushes every pending
// key this daemon still owns and caches, and keeps a key pending until
// all its successors have it. Builds and view changes call it, and the
// probe loop calls it every round, so a transient push failure heals
// within a probe interval instead of waiting for a view change that may
// never come. Drains run one at a time, so no key is pushed twice at once.
func (s *Server) retryPendingReplicas() {
	cl := s.cluster
	cl.drain.Lock()
	defer cl.drain.Unlock()
	cl.mu.Lock()
	keys := make([]string, 0, len(cl.pending))
	for k := range cl.pending {
		keys = append(keys, k)
	}
	cl.mu.Unlock()
	sort.Strings(keys)
	for _, key := range keys {
		s.mu.Lock()
		ent, cached := s.cache.entries[key]
		s.mu.Unlock()
		done := true
		switch {
		case !cached: // evicted: nothing left to protect
		case cl.owner(key) != cl.self:
			cl.logf("replica %s: skipped-not-owner (ownership moved)", key)
		default:
			done = s.pushReplicas(ent)
		}
		if done {
			cl.mu.Lock()
			delete(cl.pending, key)
			cl.mu.Unlock()
		}
	}
}

// ImportReplica ingests a proactively pushed factorization (the body of
// POST /v1/peer/replica/{key}). Idempotent: a key already cached answers
// known without decoding — re-replication after view changes would
// otherwise re-import every key it already delivered.
func (s *Server) ImportReplica(key string, r io.Reader) (known bool, err error) {
	cl := s.cluster
	if cl == nil {
		return false, errors.New("service: this daemon is not a cluster member")
	}
	s.mu.Lock()
	_, have := s.cache.entries[key]
	s.mu.Unlock()
	if have {
		return true, nil
	}
	data, err := io.ReadAll(io.LimitReader(r, maxMatrixWireBytes))
	if err != nil {
		return false, fmt.Errorf("service: reading replica body for %s: %w", key, err)
	}
	ent, err := s.importFactor(key, data)
	if err != nil {
		return false, err
	}
	ent.origin = originReplica
	s.mu.Lock()
	s.cache.insert(ent)
	s.mu.Unlock()
	cl.replicaImports.Add(1)
	cl.logf("replica %s: landed", key)
	return false, nil
}

// onViewChange reacts to a membership change: every cached key this
// daemon now owns is marked pending and the queue drained, so the key's
// current successors get it, and keys whose bytes arrived from a peer
// (fetch or replica push) are claimed — counted once as takeovers, the
// signature of inheriting a dead owner's keys. Runs synchronously on the
// probe/handler goroutine; pushes are bounded by the per-op timeout and
// the breaker.
func (s *Server) onViewChange() {
	cl := s.cluster
	if cl == nil {
		return
	}
	s.mu.Lock()
	owned := make([]*entry, 0, len(s.cache.entries))
	for _, ent := range s.cache.entries {
		if cl.owner(ent.key) == cl.self {
			owned = append(owned, ent)
		}
	}
	s.mu.Unlock()
	cl.mu.Lock()
	for _, ent := range owned {
		if ent.origin != originLocal && !cl.claimed[ent.key] {
			cl.claimed[ent.key] = true
			cl.takeovers.Add(1)
		}
		if cl.replicas > 0 {
			cl.pending[ent.key] = true
		}
	}
	cl.mu.Unlock()
	s.retryPendingReplicas()
}
