package spatial

import (
	"fmt"

	"repro/geo"
)

// Update records: the library half of the durability contract.
//
// Sketches are linear projections, so replaying a logged update stream
// into a same-config estimator reconstructs its counters bit-identically.
// Persistence therefore needs only (a) every update in a stable encoding
// and (b) a way to re-apply one. UpdateRecord with AppendBinary and
// DecodeUpdateRecord is (a); Apply on each estimator type is (b): it is
// the one update path, which every public insert and delete also takes
// (estimator.go). ValidateRecord runs Apply's validation alone, so a
// caller can log a record ahead of applying it (write-ahead) knowing the
// apply cannot be refused. Merge and MergeSnapshot fold counters, not
// update streams; callers persisting updates log merged snapshots
// themselves, as cmd/spatialserve does.

// UpdateOp says whether an update record inserts or deletes an object.
type UpdateOp uint8

// The two update operations.
const (
	// OpInsert adds an object.
	OpInsert UpdateOp = iota
	// OpDelete removes a previously inserted object.
	OpDelete
)

// String returns "insert" or "delete".
func (o UpdateOp) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("UpdateOp(%d)", uint8(o))
}

// UpdateSide names the estimator input an update record targets.
type UpdateSide uint8

// The estimator inputs an update can target.
const (
	// SideData is the single input of a RangeEstimator.
	SideData UpdateSide = iota
	// SideLeft is the left input (R or A) of a join or epsilon-join.
	SideLeft
	// SideRight is the right input (S or B) of a join or epsilon-join.
	SideRight
	// SideInner is the contained side of a containment join.
	SideInner
	// SideOuter is the containing side of a containment join.
	SideOuter
)

// String returns the side's wire name ("data", "left", "right", "inner",
// "outer").
func (s UpdateSide) String() string {
	switch s {
	case SideData:
		return "data"
	case SideLeft:
		return "left"
	case SideRight:
		return "right"
	case SideInner:
		return "inner"
	case SideOuter:
		return "outer"
	}
	return fmt.Sprintf("UpdateSide(%d)", uint8(s))
}

// UpdateRecord is one logical estimator update in public coordinates:
// exactly one of Rect or Point is set, matching the estimator's input type
// (rectangles for join/range/containment, points for epsilon-joins). It is
// what Apply replays; AppendBinary / DecodeUpdateRecord give it a stable
// binary form for write-ahead logs.
type UpdateRecord struct {
	// Op is the operation (insert or delete).
	Op UpdateOp
	// Side is the estimator input the update targets.
	Side UpdateSide
	// Rect is the object for rectangle-valued updates.
	Rect geo.HyperRect
	// Point is the object for point-valued updates (epsilon-joins).
	Point geo.Point
}
