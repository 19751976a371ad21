// Server-side answer cache: an LRU layered above the singleflight group.
//
// Singleflight only helps while identical requests overlap; a *series* of
// identical queries spread over time — the dashboard that re-asks the same
// question every few seconds, the hot entity every client looks up — pays
// the full planner cost each time. The cache closes that gap: a hit returns
// the previously rendered response bytes, which are byte-identical to a
// fresh computation because the planner is deterministic and the cache key
// captures every request byte that can influence them.
//
// The key is the raw request body (after the dataset and epoch), looked up
// before the body is decoded, so a hit does no JSON work at all. Two bodies
// share an entry only if they are byte-identical, which can never conflate
// requests whose answers differ (query order and duplicates are semantic).
// A variant that differs only in JSON whitespace or field order costs one
// miss — one decode and one plan — and then hits under its own key; its
// bytes equal the base's. Only status-200 responses are stored, so a body
// that fails validation is decoded (and refused) on every request.
//
// An entry lives until LRU pressure evicts it or its epoch falls below the
// retention floor (flushPrefix on the swap that moved the floor). The epoch is
// part of every key and an epoch's answers never change, so an entry needs no
// other expiry. Hit/miss/eviction counts and the entry gauge are exported on
// /metrics.
package server

import (
	"container/list"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"sourcecurrents/internal/metrics"
)

// answerCache is a mutex-guarded LRU of rendered answer responses. With
// maxSize <= 0 it is an always-missing cache (caching disabled) that counts
// nothing — its series stay on /metrics as zeros.
type answerCache struct {
	mu      sync.Mutex
	maxSize int
	order   *list.List // front = most recently used; values are *cacheEntry
	entries map[string]*list.Element

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	flushes   atomic.Int64
}

type cacheEntry struct {
	key  string
	body []byte
}

// newAnswerCache returns a cache bounded to maxSize entries (disabled when
// maxSize <= 0) and registers its series on reg. The series are always
// present — zeros when caching is disabled — so scrapers (and `currents
// loadgen`) never have to special-case a missing metric.
func newAnswerCache(maxSize int, reg *metrics.Registry) *answerCache {
	c := &answerCache{
		maxSize: maxSize,
		order:   list.New(),
		entries: make(map[string]*list.Element, max(maxSize, 0)),
	}
	reg.Counter("currents_answer_cache_hits_total", "Answer requests served from the response cache.", c.hits.Load)
	reg.Counter("currents_answer_cache_misses_total", "Answer cache lookups that missed.", c.misses.Load)
	reg.Counter("currents_answer_cache_evictions_total", "Entries evicted (capacity).", c.evictions.Load)
	reg.Counter("currents_answer_cache_flushes_total", "Cache flushes triggered by session swaps.", c.flushes.Load)
	reg.Gauge("currents_answer_cache_entries", "Entries currently cached.", func() int64 { return int64(c.len()) })
	return c
}

func (c *answerCache) disabled() bool { return c.maxSize <= 0 }

// get returns the cached response body for key, counting the lookup.
func (c *answerCache) get(key string) ([]byte, bool) {
	if c.disabled() {
		return nil, false
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		body := el.Value.(*cacheEntry).body
		c.mu.Unlock()
		c.hits.Add(1)
		return body, true
	}
	c.mu.Unlock()
	c.misses.Add(1)
	return nil, false
}

// put stores a rendered response, evicting the least recently used entry
// when full. body must not be mutated afterwards.
func (c *answerCache) put(key string, body []byte) {
	if c.disabled() {
		return
	}
	e := &cacheEntry{key: key, body: body}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(e)
	for c.order.Len() > c.maxSize {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
}

// flushPrefix removes every entry whose key starts with one of prefixes, in
// one pass, and counts one flush. The epoch in the cache key already
// prevents a swapped dataset from serving stale bytes; flushing on swap
// additionally reclaims the dead epochs' entries immediately instead of
// waiting for LRU pressure.
func (c *answerCache) flushPrefix(prefixes ...string) int {
	if c.disabled() {
		return 0
	}
	c.mu.Lock()
	var removed int
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*cacheEntry)
		if slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(e.key, p) }) {
			c.order.Remove(el)
			delete(c.entries, e.key)
			removed++
		}
		el = next
	}
	c.mu.Unlock()
	c.flushes.Add(1)
	return removed
}

// len returns the current entry count.
func (c *answerCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
