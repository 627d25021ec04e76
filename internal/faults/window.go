package faults

import "fmt"

// This file holds the fault-window key helper shared by every fault
// model in the repository: the call-path Injector in this package and
// the serving cluster's FaultPlan (internal/serving) both derive their
// faults from token.Uniform, so a fault is always a pure function of
// (seed, identity key) — never of wall time or execution order.

// WindowKey names one (kind, instance, window) cell for token.Uniform,
// giving cluster fault plans a shared, collision-free key scheme.
func WindowKey(kind string, instance, window int) string {
	return fmt.Sprintf("%s\x00%d\x00%d", kind, instance, window)
}
