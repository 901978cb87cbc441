// Package gpu simulates GPU device memory for the performance plane:
// capacity-checked allocation, per-owner accounting, peak tracking, and
// multi-GPU device sets. It deliberately models only what Menos'
// scheduler observes and reacts to — bytes, owners, OOM — not kernels.
// A device reports to the registry it is built with (NewDevice,
// NewDeviceSet), so every allocation, the first included, is counted in
// the families a scrape reads.
package gpu

import (
	"errors"
	"fmt"
	"sync"

	"menos/internal/obs"
)

// ErrOOM is returned when an allocation does not fit.
var ErrOOM = errors.New("gpu: out of memory")

// ErrBadFree is returned when freeing an unknown allocation.
var ErrBadFree = errors.New("gpu: unknown allocation")

// Spec describes a GPU model.
type Spec struct {
	Name        string
	MemoryBytes int64
}

// Hardware presets used in the paper's evaluation.
func V100() Spec     { return Spec{Name: "V100", MemoryBytes: 32 << 30} }
func A100() Spec     { return Spec{Name: "A100", MemoryBytes: 40 << 30} }
func RTXA4500() Spec { return Spec{Name: "RTX A4500", MemoryBytes: 20 << 30} }

// AllocID identifies one live allocation.
type AllocID uint64

type allocation struct {
	owner string
	bytes int64
}

// devMetrics are a device's telemetry handles. The zero value (all
// nil) is valid and free: obs handles are nil-receiver safe. Devices
// instrumented against the same registry share handles, so a
// DeviceSet's members aggregate naturally.
type devMetrics struct {
	allocOps *obs.Counter
	oom      *obs.Counter
	// ownerBytes attributes residency per allocation owner tag
	// ("persist:<client>", "base-model", ...), a label of this plane
	// alone: the ledger learns persistence from the scheduler.
	ownerBytes *obs.GaugeVec
}

// Device is one simulated GPU.
type Device struct {
	spec Spec

	mu     sync.Mutex
	used   int64
	peak   int64
	next   AllocID
	allocs map[AllocID]allocation

	m devMetrics
}

// NewDevice creates a device with the given spec whose counters and
// per-owner residency live in reg (nil: no telemetry). Devices made
// with the same registry share the metric handles, so the families
// report the aggregate across all of them (the paper's "GPU memory is
// an abstraction of all available GPUs").
func NewDevice(spec Spec, reg *obs.Registry) *Device {
	d := &Device{
		spec:   spec,
		allocs: make(map[AllocID]allocation),
	}
	if reg != nil {
		d.m = devMetrics{
			allocOps:   reg.Counter(obs.MetricGPUAllocOps, "allocation operations"),
			oom:        reg.Counter(obs.MetricGPUOOM, "allocations refused for lack of memory"),
			ownerBytes: reg.GaugeVec(obs.MetricGPUOwnerBytes, "owner", "bytes currently allocated per owner tag"),
		}
	}
	return d
}

// Capacity returns total device memory.
func (d *Device) Capacity() int64 { return d.spec.MemoryBytes }

// Used returns currently allocated bytes.
func (d *Device) Used() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// Available returns free bytes.
func (d *Device) Available() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.spec.MemoryBytes - d.used
}

// Peak returns the high-water mark of Used.
func (d *Device) Peak() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.peak
}

// Alloc reserves bytes for owner, failing with ErrOOM when the device
// cannot fit the request.
func (d *Device) Alloc(owner string, bytes int64) (AllocID, error) {
	if bytes < 0 {
		return 0, fmt.Errorf("gpu: negative allocation %d", bytes)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.used+bytes > d.spec.MemoryBytes {
		d.m.oom.Inc()
		return 0, fmt.Errorf("%w: %s has %d free, need %d (owner %q)",
			ErrOOM, d.spec.Name, d.spec.MemoryBytes-d.used, bytes, owner)
	}
	d.next++
	id := d.next
	d.allocs[id] = allocation{owner: owner, bytes: bytes}
	d.used += bytes
	if d.used > d.peak {
		d.peak = d.used
	}
	d.m.allocOps.Inc()
	d.m.ownerBytes.With(owner).Add(bytes)
	return id, nil
}

// Free releases one allocation.
func (d *Device) Free(id AllocID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	a, ok := d.allocs[id]
	if !ok {
		return fmt.Errorf("%w: id %d", ErrBadFree, id)
	}
	delete(d.allocs, id)
	d.used -= a.bytes
	d.m.ownerBytes.With(a.owner).Add(-a.bytes)
	return nil
}

// FreeOwner releases every allocation held by owner and returns the
// number of bytes reclaimed.
func (d *Device) FreeOwner(owner string) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var reclaimed int64
	for id, a := range d.allocs {
		if a.owner == owner {
			delete(d.allocs, id)
			d.used -= a.bytes
			reclaimed += a.bytes
		}
	}
	if reclaimed > 0 {
		d.m.ownerBytes.With(owner).Add(-reclaimed)
	}
	return reclaimed
}
