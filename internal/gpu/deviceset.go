package gpu

import (
	"fmt"
	"sync"

	"menos/internal/obs"
)

// DeviceSet aggregates multiple GPUs on one server. It mirrors the
// paper's multi-GPU abstraction (§3.1): "the GPU memory illustrated in
// Fig. 2 is an abstraction of all available GPUs" — a large base model
// is sharded across devices at load time, and runtime allocations land
// on whichever device has room.
type DeviceSet struct {
	mu      sync.Mutex
	devices []*Device
	// placements maps a set-level allocation to its device part, and
	// shards one AllocSharded spread to its parts, so a single-device
	// allocation costs the set no slice.
	placements map[AllocID]placement
	shards     map[AllocID][]placement
	next       AllocID
}

type placement struct {
	device *Device
	id     AllocID
}

// NewDeviceSet builds a set of n identical devices.
func NewDeviceSet(spec Spec, n int) (*DeviceSet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gpu: device set needs at least one device, got %d", n)
	}
	s := &DeviceSet{placements: make(map[AllocID]placement), shards: make(map[AllocID][]placement)}
	for i := 0; i < n; i++ {
		s.devices = append(s.devices, NewDevice(spec))
	}
	return s, nil
}

// Instrument wires every member device to the registry. Because
// devices instrumented against one registry share metric handles, the
// exported used/peak gauges and alloc/free counters report the
// set-wide aggregate.
func (s *DeviceSet) Instrument(reg *obs.Registry) {
	for _, d := range s.devices {
		d.Instrument(reg)
	}
}

// Capacity returns aggregate memory.
func (s *DeviceSet) Capacity() int64 {
	var total int64
	for _, d := range s.devices {
		total += d.Capacity()
	}
	return total
}

// Used returns aggregate allocated bytes.
func (s *DeviceSet) Used() int64 {
	var total int64
	for _, d := range s.devices {
		total += d.Used()
	}
	return total
}

// Available returns aggregate free bytes.
func (s *DeviceSet) Available() int64 { return s.Capacity() - s.Used() }

// Peak returns the aggregate high-water mark (sum of per-device peaks,
// an upper bound on the true simultaneous peak).
func (s *DeviceSet) Peak() int64 {
	var total int64
	for _, d := range s.devices {
		total += d.Peak()
	}
	return total
}

// Alloc places bytes on the single device with the most free memory
// (worst-fit, to balance load). It fails with ErrOOM when no single
// device can hold the request; use AllocSharded for spreadable data.
func (s *DeviceSet) Alloc(owner string, bytes int64) (AllocID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var best *Device
	var bestFree int64 = -1
	for _, d := range s.devices {
		if free := d.Available(); free >= bytes && free > bestFree {
			best, bestFree = d, free
		}
	}
	if best == nil {
		return 0, fmt.Errorf("%w: no device with %d free bytes (owner %q)", ErrOOM, bytes, owner)
	}
	id, err := best.Alloc(owner, bytes)
	if err != nil {
		return 0, err
	}
	s.next++
	setID := s.next
	s.placements[setID] = placement{device: best, id: id}
	return setID, nil
}

// AllocSharded spreads bytes evenly across all devices — how a model
// too large for one GPU is loaded ("manually assign different layers
// across multiple GPUs", §3.1). It fails atomically with ErrOOM if any
// shard does not fit.
func (s *DeviceSet) AllocSharded(owner string, bytes int64) (AllocID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := int64(len(s.devices))
	share := bytes / n
	rem := bytes - share*n
	var placed []placement
	for i, d := range s.devices {
		want := share
		if int64(i) < rem {
			want++
		}
		id, err := d.Alloc(owner, want)
		if err != nil {
			for _, p := range placed {
				_ = p.device.Free(p.id)
			}
			return 0, fmt.Errorf("shard %d/%d: %w", i+1, n, err)
		}
		placed = append(placed, placement{device: d, id: id})
	}
	s.next++
	setID := s.next
	s.shards[setID] = placed
	return setID, nil
}

// Free releases a set-level allocation (all shards).
func (s *DeviceSet) Free(id AllocID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.placements[id]; ok {
		delete(s.placements, id)
		return p.device.Free(p.id)
	}
	placed, ok := s.shards[id]
	if !ok {
		return fmt.Errorf("%w: set id %d", ErrBadFree, id)
	}
	delete(s.shards, id)
	for _, p := range placed {
		if err := p.device.Free(p.id); err != nil {
			return err
		}
	}
	return nil
}

// FreeOwner releases all allocations held by owner across all devices.
// Ownership is recorded at the device level; set-level entries whose
// shards are all gone are pruned afterwards.
func (s *DeviceSet) FreeOwner(owner string) int64 {
	var reclaimed int64
	for _, d := range s.devices {
		reclaimed += d.FreeOwner(owner)
	}
	s.pruneDead()
	return reclaimed
}

// pruneDead drops set-level entries whose device allocations were
// freed out-of-band (e.g. by FreeOwner).
func (s *DeviceSet) pruneDead() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, p := range s.placements {
		if !p.device.OwnerUsageByID(p.id) {
			delete(s.placements, id)
		}
	}
	for id, placed := range s.shards {
		live := false
		for _, p := range placed {
			if p.device.OwnerUsageByID(p.id) {
				live = true
				break
			}
		}
		if !live {
			delete(s.shards, id)
		}
	}
}

// OwnerUsageByID reports whether allocation id is still live on the
// device.
func (d *Device) OwnerUsageByID(id AllocID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.allocs[id]
	return ok
}
