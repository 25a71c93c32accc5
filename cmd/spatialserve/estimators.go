package main

import (
	"fmt"

	spatial "repro"
	"repro/geo"
)

// Kind-specific servable wrappers: each adapts one public estimator type
// to the kind-erased server interface. buildServable and restoreServable
// are the only constructors, and each draws a fresh incarnation, so every
// estimator object - created, restored from a snapshot PUT, a checkpoint,
// the WAL, a replica bootstrap or a rebalance install - validates its
// snapshots under its own tags (see validators.go).

func buildServable(kind string, cfg configRequest) (servable, error) {
	k, err := spatial.ParseKind(kind)
	if err != nil {
		return nil, err
	}
	switch k {
	case spatial.KindJoin:
		mode := spatial.ModeTransform
		switch cfg.Mode {
		case "", "transform":
		case "common-endpoints":
			mode = spatial.ModeCommonEndpoints
		default:
			return nil, fmt.Errorf("unknown join mode %q", cfg.Mode)
		}
		e, err := spatial.NewJoinEstimator(spatial.JoinConfig{
			Dims: cfg.Dims, DomainSize: cfg.DomainSize, Sizing: cfg.sizing(),
			MaxLevel: cfg.MaxLevel, Mode: mode, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		return &joinServable{e, nextIncarnation()}, nil
	case spatial.KindRange:
		e, err := spatial.NewRangeEstimator(spatial.RangeConfig{
			Dims: cfg.Dims, DomainSize: cfg.DomainSize, Sizing: cfg.sizing(),
			MaxLevel: cfg.MaxLevel, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		return &rangeServable{e, nextIncarnation()}, nil
	case spatial.KindEpsJoin:
		e, err := spatial.NewEpsJoinEstimator(spatial.EpsJoinConfig{
			Dims: cfg.Dims, DomainSize: cfg.DomainSize, Eps: cfg.Eps,
			Sizing: cfg.sizing(), MaxLevel: cfg.MaxLevel, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		return &epsJoinServable{e, nextIncarnation()}, nil
	case spatial.KindContainment:
		e, err := spatial.NewContainmentEstimator(spatial.ContainmentConfig{
			Dims: cfg.Dims, DomainSize: cfg.DomainSize, Sizing: cfg.sizing(),
			MaxLevel: cfg.MaxLevel, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		return &containmentServable{e, nextIncarnation()}, nil
	}
	return nil, fmt.Errorf("unknown estimator kind %q", kind)
}

// restoreServable reconstructs a servable estimator from a snapshot
// envelope, dispatching on the embedded kind.
func restoreServable(data []byte) (servable, error) {
	k, err := spatial.SnapshotKind(data)
	if err != nil {
		return nil, err
	}
	switch k {
	case spatial.KindJoin:
		e, err := spatial.UnmarshalJoinEstimator(data)
		if err != nil {
			return nil, err
		}
		return &joinServable{e, nextIncarnation()}, nil
	case spatial.KindRange:
		e, err := spatial.UnmarshalRangeEstimator(data)
		if err != nil {
			return nil, err
		}
		return &rangeServable{e, nextIncarnation()}, nil
	case spatial.KindEpsJoin:
		e, err := spatial.UnmarshalEpsJoinEstimator(data)
		if err != nil {
			return nil, err
		}
		return &epsJoinServable{e, nextIncarnation()}, nil
	case spatial.KindContainment:
		e, err := spatial.UnmarshalContainmentEstimator(data)
		if err != nil {
			return nil, err
		}
		return &containmentServable{e, nextIncarnation()}, nil
	}
	return nil, fmt.Errorf("unknown snapshot kind %v", k)
}

// errNoBatch is the estimateBatch implementation of the parameterless
// estimator kinds: their estimate takes no query, so there is nothing to
// batch - the single estimate is already memoized per view.
func errNoBatch(kind spatial.Kind) (*batchEstimateResponse, error) {
	return nil, fmt.Errorf("%v estimators take no query; batch estimates are supported by range estimators only", kind)
}

// ---- join ----

type joinServable struct {
	e *spatial.JoinEstimator
	incarnation
}

func (j *joinServable) kind() spatial.Kind { return spatial.KindJoin }
func (j *joinServable) instances() int     { return j.e.Instances() }
func (j *joinServable) spaceWords() int    { return j.e.SpaceWords() }
func (j *joinServable) version() uint64    { return j.e.Version() }

func (j *joinServable) configJSON() any {
	cfg := j.e.Config()
	return configRequest{
		Dims: cfg.Dims, DomainSize: cfg.DomainSize, Mode: cfg.Mode.String(),
		MaxLevel: cfg.MaxLevel, Seed: cfg.Seed,
		Instances: j.e.Instances(), Groups: j.e.Groups(),
	}
}

func (j *joinServable) counts() map[string]int64 {
	return map[string]int64{"left": j.e.LeftCount(), "right": j.e.RightCount()}
}

func (j *joinServable) estimate(req *estimateRequest) (*estimateResponse, error) {
	// Estimate and counts come from ONE consistent view, so the reported
	// selectivity always divides by the sizes the estimate was computed
	// against, even under concurrent writers.
	var est spatial.Estimate
	var left, right int64
	var err error
	if req.Extended {
		est, left, right, err = j.e.CardinalityExtendedWithCounts()
	} else {
		est, left, right, err = j.e.CardinalityWithCounts()
	}
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{"left": left, "right": right}
	return estimateWire(spatial.KindJoin, est, counts, float64(left)*float64(right)), nil
}

func (j *joinServable) estimateBatch(req *estimateRequest) (*batchEstimateResponse, error) {
	return errNoBatch(spatial.KindJoin)
}

func (j *joinServable) snapshot() ([]byte, error)       { return j.e.Marshal() }
func (j *joinServable) mergeSnapshot(data []byte) error { return j.e.MergeSnapshot(data) }

func (j *joinServable) applyRecord(rec spatial.UpdateRecord) error { return j.e.Apply(rec) }
func (j *joinServable) validateRecord(rec spatial.UpdateRecord) error {
	return j.e.ValidateRecord(rec)
}

// ---- range ----

type rangeServable struct {
	e *spatial.RangeEstimator
	incarnation
}

func (s *rangeServable) kind() spatial.Kind { return spatial.KindRange }
func (s *rangeServable) instances() int     { return s.e.Instances() }
func (s *rangeServable) spaceWords() int    { return s.e.SpaceWords() }
func (s *rangeServable) version() uint64    { return s.e.Version() }

func (s *rangeServable) configJSON() any {
	cfg := s.e.Config()
	return configRequest{
		Dims: cfg.Dims, DomainSize: cfg.DomainSize,
		MaxLevel: cfg.MaxLevel, Seed: cfg.Seed,
		Instances: s.e.Instances(), Groups: s.e.Groups(),
	}
}

func (s *rangeServable) counts() map[string]int64 {
	return map[string]int64{"data": s.e.Count()}
}

func (s *rangeServable) estimate(req *estimateRequest) (*estimateResponse, error) {
	if len(req.Query) == 0 {
		return nil, fmt.Errorf("range estimate needs a query hyper-rectangle")
	}
	est, count, err := s.e.EstimateWithCount(decodeQuery(req.Query))
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{"data": count}
	return estimateWire(spatial.KindRange, est, counts, float64(count)), nil
}

// estimateBatch answers a Queries batch with per-query error isolation:
// malformed queries (empty, wrong dimensionality, inverted or
// out-of-domain intervals) yield a result carrying an Error, and every
// valid query is still answered - all from ONE pinned view, so the valid
// results stay mutually consistent. Fan-out aggregators rely on this: one
// bad query in a scattered batch must not poison the node's whole answer.
func (s *rangeServable) estimateBatch(req *estimateRequest) (*batchEstimateResponse, error) {
	resp := &batchEstimateResponse{Results: make([]*estimateResponse, len(req.Queries))}
	var valid []geo.HyperRect
	var validIdx []int
	for i, q := range req.Queries {
		if len(q) == 0 {
			resp.Results[i] = &estimateResponse{Kind: spatial.KindRange.String(),
				Error: fmt.Sprintf("batch query %d is empty", i)}
			continue
		}
		hq := decodeQuery(q)
		if err := s.e.ValidateQuery(hq); err != nil {
			resp.Results[i] = &estimateResponse{Kind: spatial.KindRange.String(),
				Error: fmt.Sprintf("batch query %d: %v", i, err)}
			continue
		}
		valid = append(valid, hq)
		validIdx = append(validIdx, i)
	}
	if len(valid) > 0 {
		ests, count, err := s.e.EstimateBatch(valid)
		if err != nil {
			return nil, err
		}
		counts := map[string]int64{"data": count}
		for j, est := range ests {
			resp.Results[validIdx[j]] = estimateWire(spatial.KindRange, est, counts, float64(count))
		}
	}
	return resp, nil
}

func (s *rangeServable) snapshot() ([]byte, error)       { return s.e.Marshal() }
func (s *rangeServable) mergeSnapshot(data []byte) error { return s.e.MergeSnapshot(data) }

func (s *rangeServable) applyRecord(rec spatial.UpdateRecord) error { return s.e.Apply(rec) }
func (s *rangeServable) validateRecord(rec spatial.UpdateRecord) error {
	return s.e.ValidateRecord(rec)
}

// ---- epsilon-join ----

type epsJoinServable struct {
	e *spatial.EpsJoinEstimator
	incarnation
}

func (s *epsJoinServable) kind() spatial.Kind { return spatial.KindEpsJoin }
func (s *epsJoinServable) instances() int     { return s.e.Instances() }
func (s *epsJoinServable) spaceWords() int    { return s.e.SpaceWords() }
func (s *epsJoinServable) version() uint64    { return s.e.Version() }

func (s *epsJoinServable) configJSON() any {
	cfg := s.e.Config()
	return configRequest{
		Dims: cfg.Dims, DomainSize: cfg.DomainSize, Eps: cfg.Eps,
		MaxLevel: cfg.MaxLevel, Seed: cfg.Seed,
		Instances: s.e.Instances(), Groups: s.e.Groups(),
	}
}

func (s *epsJoinServable) counts() map[string]int64 {
	return map[string]int64{"left": s.e.LeftCount(), "right": s.e.RightCount()}
}

func (s *epsJoinServable) estimate(req *estimateRequest) (*estimateResponse, error) {
	est, left, right, err := s.e.CardinalityWithCounts()
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{"left": left, "right": right}
	return estimateWire(spatial.KindEpsJoin, est, counts, float64(left)*float64(right)), nil
}

func (s *epsJoinServable) estimateBatch(req *estimateRequest) (*batchEstimateResponse, error) {
	return errNoBatch(spatial.KindEpsJoin)
}

func (s *epsJoinServable) snapshot() ([]byte, error)       { return s.e.Marshal() }
func (s *epsJoinServable) mergeSnapshot(data []byte) error { return s.e.MergeSnapshot(data) }

func (s *epsJoinServable) applyRecord(rec spatial.UpdateRecord) error { return s.e.Apply(rec) }
func (s *epsJoinServable) validateRecord(rec spatial.UpdateRecord) error {
	return s.e.ValidateRecord(rec)
}

// ---- containment ----

type containmentServable struct {
	e *spatial.ContainmentEstimator
	incarnation
}

func (s *containmentServable) kind() spatial.Kind { return spatial.KindContainment }
func (s *containmentServable) instances() int     { return s.e.Instances() }
func (s *containmentServable) spaceWords() int    { return s.e.SpaceWords() }
func (s *containmentServable) version() uint64    { return s.e.Version() }

func (s *containmentServable) configJSON() any {
	cfg := s.e.Config()
	return configRequest{
		Dims: cfg.Dims, DomainSize: cfg.DomainSize,
		MaxLevel: cfg.MaxLevel, Seed: cfg.Seed,
		Instances: s.e.Instances(), Groups: s.e.Groups(),
	}
}

func (s *containmentServable) counts() map[string]int64 {
	return map[string]int64{"inner": s.e.InnerCount(), "outer": s.e.OuterCount()}
}

func (s *containmentServable) estimate(req *estimateRequest) (*estimateResponse, error) {
	est, inner, outer, err := s.e.CardinalityWithCounts()
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{"inner": inner, "outer": outer}
	return estimateWire(spatial.KindContainment, est, counts, float64(inner)*float64(outer)), nil
}

func (s *containmentServable) estimateBatch(req *estimateRequest) (*batchEstimateResponse, error) {
	return errNoBatch(spatial.KindContainment)
}

func (s *containmentServable) snapshot() ([]byte, error)       { return s.e.Marshal() }
func (s *containmentServable) mergeSnapshot(data []byte) error { return s.e.MergeSnapshot(data) }

func (s *containmentServable) applyRecord(rec spatial.UpdateRecord) error { return s.e.Apply(rec) }
func (s *containmentServable) validateRecord(rec spatial.UpdateRecord) error {
	return s.e.ValidateRecord(rec)
}
