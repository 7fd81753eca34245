// The query contract: the Request/Response shapes the serving tier
// (internal/serve) answers, over whatever snapshot versions the rankers
// have published.
package search

import (
	"errors"
	"fmt"
)

// Typed sentinel errors of the query API. Wrap-aware: match with
// errors.Is.
var (
	// ErrUnknownTerm reports a query term outside the vocabulary.
	ErrUnknownTerm = errors.New("search: term outside vocabulary")
	// ErrStaleIndex reports that the server cannot satisfy the
	// request's MinVersion — the served ranks are older than the
	// caller demands (or no snapshot has been published yet).
	ErrStaleIndex = errors.New("search: served ranks older than requested MinVersion")
	// ErrOverloaded reports that admission control shed the query: the
	// server is over its in-flight limit or its served ranks have
	// drifted past the staleness bound. Retry after the hint carried by
	// the wrapping OverloadError.
	ErrOverloaded = errors.New("search: overloaded, query shed by admission control")
)

// OverloadError is the typed shed error: it matches ErrOverloaded under
// errors.Is and carries the server's retry hint.
type OverloadError struct {
	// RetryAfter is the suggested wait before retrying, in seconds.
	RetryAfter float64
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("%v (retry after %.3gs)", ErrOverloaded, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// Request is a conjunctive top-k query.
type Request struct {
	// Terms the result pages must ALL contain.
	Terms []int32
	// K bounds the result size.
	K int
	// From is the ranker the query originates at — the origin of the
	// overlay hop accounting in Response.Cost.
	From int
	// MinVersion, when positive, demands ranks at least this fresh:
	// serving any snapshot older than MinVersion fails with
	// ErrStaleIndex instead of silently answering from stale data.
	MinVersion int64
}

// Validate checks the request shape against a vocabulary size.
func (r Request) Validate(vocabulary int) error {
	if len(r.Terms) == 0 {
		return fmt.Errorf("search: empty query")
	}
	if r.K <= 0 {
		return fmt.Errorf("search: k = %d, must be positive", r.K)
	}
	for _, t := range r.Terms {
		if t < 0 || int(t) >= vocabulary {
			return fmt.Errorf("%w: term %d, vocabulary %d", ErrUnknownTerm, t, vocabulary)
		}
	}
	return nil
}

// Posting is one query result: a page and its rank.
type Posting struct {
	Page  int32
	Score float64
}

// Cost is the overlay traffic of resolving one query: the lookup hops
// from the requesting ranker to each consulted shard, plus one response
// message per consultation.
type Cost struct {
	LookupHops int
	Responses  int
}

// Response is a served query result. Postings is filled by appending
// into Postings[:0], so callers that reuse a Response across queries
// pay no allocation once its capacity has grown.
type Response struct {
	// Postings are the top-k matches, best first (score descending,
	// page ascending on ties).
	Postings []Posting
	// Version identifies the rank data that produced the scores: the
	// oldest snapshot version consulted. Monotone across publishes.
	Version int64
	// Staleness is how many committed rounds behind the live
	// computation the served ranks are, maximized over consulted
	// shards.
	Staleness int64
	// Cost is the overlay traffic this query accounted for.
	Cost Cost
	// Coverage is the fraction of the shards the query planner wanted
	// that actually contributed partial results: 1 on a healthy fan-out,
	// lower when partitions or deadlines forced a partial merge.
	Coverage float64
	// Degraded reports a partial answer: at least one planned shard was
	// skipped, so Postings may miss matches that shard held. Paired
	// with Coverage it lets callers decide whether a degraded answer is
	// good enough instead of the server deciding for them with an error.
	Degraded bool
	// Hedged counts shard reads that missed their deadline on the
	// primary snapshot and were answered from the replica (previous
	// published) snapshot instead. Hedged shards still count as covered;
	// their extra rounds-behind show up in Staleness.
	Hedged int
}
