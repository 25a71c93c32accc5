package main

import (
	"fmt"

	spatial "repro"
	"repro/geo"
)

// One servable for every estimator kind: estServable adapts any public
// estimator to the kind-erased server interface, and the kinds registry
// supplies the few things that differ between the kinds - construction,
// configuration, counts and estimates. buildServable and restoreServable
// are the only constructors, and each draws a fresh incarnation, so every
// estimator object - created, restored from a snapshot PUT, a checkpoint,
// the WAL, a replica bootstrap or a rebalance install - validates its
// snapshots under its own tags (see validators.go).

// estimator is the lifecycle the four public estimator types share.
type estimator interface {
	Instances() int
	Groups() int
	SpaceWords() int
	Version() uint64
	Marshal() ([]byte, error)
	MergeSnapshot(data []byte) error
	Apply(rec spatial.UpdateRecord) error
	ValidateRecord(rec spatial.UpdateRecord) error
}

// pairEstimator is what the two-input kinds add: an estimate read
// together with both input sizes from one view.
type pairEstimator interface {
	estimator
	CardinalityWithCounts() (spatial.Estimate, int64, int64, error)
}

// kindEntry is one estimator kind in the registry.
type kindEntry struct {
	// sides name the inputs in counts, in the estimator's side order.
	sides []string
	build func(cfg configRequest) (estimator, error)
	// restore decodes a snapshot of the kind.
	restore func(data []byte) (estimator, error)
	// config is the estimator's configuration in wire form, sizing
	// excluded.
	config func(e estimator) configRequest
	// counts reads the input sizes, in side order.
	counts func(e estimator) []int64
	// estimate answers one request with the input sizes it was computed
	// against, read from the same view.
	estimate func(e estimator, req *estimateRequest) (spatial.Estimate, []int64, error)
	// batch answers a Queries batch; nil for kinds whose estimate takes
	// no query.
	batch func(s *estServable, req *estimateRequest) (*batchEstimateResponse, error)
}

var kinds = map[spatial.Kind]*kindEntry{
	spatial.KindJoin: {
		sides: []string{"left", "right"},
		build: func(c configRequest) (estimator, error) {
			mode := spatial.ModeTransform
			switch c.Mode {
			case "", "transform":
			case "common-endpoints":
				mode = spatial.ModeCommonEndpoints
			default:
				return nil, fmt.Errorf("unknown join mode %q", c.Mode)
			}
			return erase(spatial.NewJoinEstimator(spatial.JoinConfig{
				Dims: c.Dims, DomainSize: c.DomainSize, Sizing: c.sizing(),
				MaxLevel: c.MaxLevel, Mode: mode, Seed: c.Seed,
			}))
		},
		restore: func(data []byte) (estimator, error) { return erase(spatial.UnmarshalJoinEstimator(data)) },
		config: func(e estimator) configRequest {
			c := e.(*spatial.JoinEstimator).Config()
			return configRequest{Dims: c.Dims, DomainSize: c.DomainSize, Mode: c.Mode.String(), MaxLevel: c.MaxLevel, Seed: c.Seed}
		},
		counts: func(e estimator) []int64 {
			j := e.(*spatial.JoinEstimator)
			return []int64{j.LeftCount(), j.RightCount()}
		},
		estimate: func(e estimator, req *estimateRequest) (spatial.Estimate, []int64, error) {
			if req.Extended {
				est, l, r, err := e.(*spatial.JoinEstimator).CardinalityExtendedWithCounts()
				return est, []int64{l, r}, err
			}
			return pairEstimate(e, req)
		},
	},
	spatial.KindRange: {
		sides: []string{"data"},
		build: func(c configRequest) (estimator, error) {
			return erase(spatial.NewRangeEstimator(spatial.RangeConfig{
				Dims: c.Dims, DomainSize: c.DomainSize, Sizing: c.sizing(),
				MaxLevel: c.MaxLevel, Seed: c.Seed,
			}))
		},
		restore: func(data []byte) (estimator, error) { return erase(spatial.UnmarshalRangeEstimator(data)) },
		config: func(e estimator) configRequest {
			c := e.(*spatial.RangeEstimator).Config()
			return configRequest{Dims: c.Dims, DomainSize: c.DomainSize, MaxLevel: c.MaxLevel, Seed: c.Seed}
		},
		counts: func(e estimator) []int64 { return []int64{e.(*spatial.RangeEstimator).Count()} },
		estimate: func(e estimator, req *estimateRequest) (spatial.Estimate, []int64, error) {
			if len(req.Query) == 0 {
				return spatial.Estimate{}, nil, fmt.Errorf("range estimate needs a query hyper-rectangle")
			}
			est, count, err := e.(*spatial.RangeEstimator).EstimateWithCount(decodeQuery(req.Query))
			return est, []int64{count}, err
		},
		batch: rangeBatch,
	},
	spatial.KindEpsJoin: {
		sides: []string{"left", "right"},
		build: func(c configRequest) (estimator, error) {
			return erase(spatial.NewEpsJoinEstimator(spatial.EpsJoinConfig{
				Dims: c.Dims, DomainSize: c.DomainSize, Eps: c.Eps,
				Sizing: c.sizing(), MaxLevel: c.MaxLevel, Seed: c.Seed,
			}))
		},
		restore: func(data []byte) (estimator, error) { return erase(spatial.UnmarshalEpsJoinEstimator(data)) },
		config: func(e estimator) configRequest {
			c := e.(*spatial.EpsJoinEstimator).Config()
			return configRequest{Dims: c.Dims, DomainSize: c.DomainSize, Eps: c.Eps, MaxLevel: c.MaxLevel, Seed: c.Seed}
		},
		counts: func(e estimator) []int64 {
			j := e.(*spatial.EpsJoinEstimator)
			return []int64{j.LeftCount(), j.RightCount()}
		},
		estimate: pairEstimate,
	},
	spatial.KindContainment: {
		sides: []string{"inner", "outer"},
		build: func(c configRequest) (estimator, error) {
			return erase(spatial.NewContainmentEstimator(spatial.ContainmentConfig{
				Dims: c.Dims, DomainSize: c.DomainSize, Sizing: c.sizing(),
				MaxLevel: c.MaxLevel, Seed: c.Seed,
			}))
		},
		restore: func(data []byte) (estimator, error) { return erase(spatial.UnmarshalContainmentEstimator(data)) },
		config: func(e estimator) configRequest {
			c := e.(*spatial.ContainmentEstimator).Config()
			return configRequest{Dims: c.Dims, DomainSize: c.DomainSize, MaxLevel: c.MaxLevel, Seed: c.Seed}
		},
		counts: func(e estimator) []int64 {
			j := e.(*spatial.ContainmentEstimator)
			return []int64{j.InnerCount(), j.OuterCount()}
		},
		estimate: pairEstimate,
	},
}

// erase turns a typed constructor result into the registry's, keeping a
// failed construction a nil estimator.
func erase[E estimator](e E, err error) (estimator, error) {
	if err != nil {
		return nil, err
	}
	return e, nil
}

// pairEstimate is the estimate of the two-input kinds. Estimate and
// counts come from ONE consistent view, so the reported selectivity
// always divides by the sizes the estimate was computed against, even
// under concurrent writers.
func pairEstimate(e estimator, _ *estimateRequest) (spatial.Estimate, []int64, error) {
	est, a, b, err := e.(pairEstimator).CardinalityWithCounts()
	return est, []int64{a, b}, err
}

func buildServable(kind string, cfg configRequest) (servable, error) {
	k, err := spatial.ParseKind(kind)
	if err != nil {
		return nil, err
	}
	e, err := kinds[k].build(cfg)
	if err != nil {
		return nil, err
	}
	return &estServable{e, k, kinds[k], nextIncarnation()}, nil
}

// restoreServable reconstructs a servable estimator from a snapshot
// envelope, dispatching on the embedded kind.
func restoreServable(data []byte) (servable, error) {
	k, err := spatial.SnapshotKind(data)
	if err != nil {
		return nil, err
	}
	e, err := kinds[k].restore(data)
	if err != nil {
		return nil, err
	}
	return &estServable{e, k, kinds[k], nextIncarnation()}, nil
}

// estServable is the one servable: a public estimator, its kind's
// registry entry and the object's incarnation.
type estServable struct {
	e     estimator
	k     spatial.Kind
	entry *kindEntry
	incarnation
}

func (s *estServable) kind() spatial.Kind                            { return s.k }
func (s *estServable) instances() int                                { return s.e.Instances() }
func (s *estServable) spaceWords() int                               { return s.e.SpaceWords() }
func (s *estServable) version() uint64                               { return s.e.Version() }
func (s *estServable) snapshot() ([]byte, error)                     { return s.e.Marshal() }
func (s *estServable) mergeSnapshot(data []byte) error               { return s.e.MergeSnapshot(data) }
func (s *estServable) applyRecord(rec spatial.UpdateRecord) error    { return s.e.Apply(rec) }
func (s *estServable) validateRecord(rec spatial.UpdateRecord) error { return s.e.ValidateRecord(rec) }

func (s *estServable) configJSON() any {
	cfg := s.entry.config(s.e)
	cfg.Instances, cfg.Groups = s.e.Instances(), s.e.Groups()
	return cfg
}

func (s *estServable) counts() map[string]int64 {
	counts, _ := s.countMap(s.entry.counts(s.e))
	return counts
}

// countMap names input sizes by side and returns their product, the
// selectivity denominator.
func (s *estServable) countMap(sizes []int64) (map[string]int64, float64) {
	counts := make(map[string]int64, len(sizes))
	den := 1.0
	for i, n := range sizes {
		counts[s.entry.sides[i]] = n
		den *= float64(n)
	}
	return counts, den
}

func (s *estServable) estimate(req *estimateRequest) (*estimateResponse, error) {
	est, sizes, err := s.entry.estimate(s.e, req)
	if err != nil {
		return nil, err
	}
	counts, den := s.countMap(sizes)
	return estimateWire(s.k, est, counts, den), nil
}

func (s *estServable) estimateBatch(req *estimateRequest) (*batchEstimateResponse, error) {
	if s.entry.batch == nil {
		// The estimate takes no query, so there is nothing to batch - the
		// single estimate is already memoized per view.
		return nil, fmt.Errorf("%v estimators take no query; batch estimates are supported by range estimators only", s.k)
	}
	return s.entry.batch(s, req)
}

// rangeBatch answers a Queries batch with per-query error isolation:
// malformed queries (empty, wrong dimensionality, inverted or
// out-of-domain intervals) yield a result carrying an Error, and every
// valid query is still answered - all from ONE pinned view, so the valid
// results stay mutually consistent. Fan-out aggregators rely on this: one
// bad query in a scattered batch must not poison the node's whole answer.
func rangeBatch(s *estServable, req *estimateRequest) (*batchEstimateResponse, error) {
	e := s.e.(*spatial.RangeEstimator)
	resp := &batchEstimateResponse{Results: make([]*estimateResponse, len(req.Queries))}
	var valid []geo.HyperRect
	var validIdx []int
	for i, q := range req.Queries {
		if len(q) == 0 {
			resp.Results[i] = &estimateResponse{Kind: s.k.String(),
				Error: fmt.Sprintf("batch query %d is empty", i)}
			continue
		}
		hq := decodeQuery(q)
		if err := e.ValidateQuery(hq); err != nil {
			resp.Results[i] = &estimateResponse{Kind: s.k.String(),
				Error: fmt.Sprintf("batch query %d: %v", i, err)}
			continue
		}
		valid = append(valid, hq)
		validIdx = append(validIdx, i)
	}
	if len(valid) > 0 {
		ests, count, err := e.EstimateBatch(valid)
		if err != nil {
			return nil, err
		}
		counts, den := s.countMap([]int64{count})
		for j, est := range ests {
			resp.Results[validIdx[j]] = estimateWire(s.k, est, counts, den)
		}
	}
	return resp, nil
}
