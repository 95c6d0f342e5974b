// Package platform models the target parallel machine: P identical
// accelerators (GPUs) with a fixed memory capacity, fully connected by
// point-to-point links of identical bandwidth, exactly as assumed by
// PipeDream and MadPipe.
package platform

import (
	"errors"
	"fmt"
	"math"
)

// Common unit helpers. All sizes in the repository are expressed in bytes
// (float64) and all durations in seconds (float64).
const (
	KB = 1e3
	MB = 1e6
	GB = 1e9

	Millisecond = 1e-3
	Microsecond = 1e-6
)

// Platform describes the machine an allocation is planned for.
type Platform struct {
	// Workers is the number of accelerators P (>= 1).
	Workers int
	// Memory is the per-accelerator memory capacity M in bytes.
	Memory float64
	// Bandwidth is the point-to-point link bandwidth beta in bytes/second.
	// Every pair of accelerators is connected by a dedicated link of this
	// capacity, as in the PipeDream model.
	Bandwidth float64
	// Latency is the per-message overhead alpha in seconds (the alpha-beta
	// communication model). The paper assumes alpha = 0 — the zero value —
	// which this repository's experiments use as well; a positive value
	// charges each tensor transfer a fixed startup cost.
	Latency float64
}

// Validate reports whether the platform description is usable. Every
// comparison is false for NaN, so each check is written to fail on it,
// and +Inf is rejected explicitly.
func (p Platform) Validate() error {
	switch {
	case p.Workers < 1:
		return fmt.Errorf("platform: Workers must be >= 1, got %d", p.Workers)
	case !(p.Memory > 0) || math.IsInf(p.Memory, 1):
		return fmt.Errorf("platform: Memory must be positive and finite, got %g", p.Memory)
	case !(p.Bandwidth > 0) || math.IsInf(p.Bandwidth, 1):
		return fmt.Errorf("platform: Bandwidth must be positive and finite, got %g", p.Bandwidth)
	case !(p.Latency >= 0) || math.IsInf(p.Latency, 1):
		return fmt.Errorf("platform: Latency must be non-negative and finite, got %g", p.Latency)
	}
	return nil
}

// ErrInfeasible is returned by planners when no allocation or schedule fits
// the platform's memory under any period.
var ErrInfeasible = errors.New("platform: memory constraints cannot be satisfied")

// CommTime returns the time needed to transfer size bytes over one link:
// alpha + size/beta, with no charge for empty transfers.
func (p Platform) CommTime(size float64) float64 {
	if size <= 0 {
		return 0
	}
	return p.Latency + size/p.Bandwidth
}

func (p Platform) String() string {
	return fmt.Sprintf("P=%d M=%.1fGB beta=%.1fGB/s",
		p.Workers, p.Memory/GB, p.Bandwidth/GB)
}
