//go:build !protocol_pernode_draw

package protocol

// forcePerNodeDraw routes every sparse-eligible configuration back to the
// dense per-node sortition sweep when true. The protocol_pernode_draw
// build tag flips the default, turning the whole test suite into a
// differential-oracle run against the legacy path, mirroring
// sim_legacy_heap.
const forcePerNodeDraw = false
