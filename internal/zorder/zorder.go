// Package zorder implements 3D Z-order (Morton) indexing.
//
// The FMM solver numbers the boxes of its recursive domain subdivision along
// a Z-order space-filling curve (paper §II-B): sorting particles by their
// Morton key yields a domain decomposition where every process owns a
// contiguous segment of the curve.
package zorder

// MaxLevel is the deepest supported subdivision level: 21 bits per
// dimension fill the 63 usable bits of a Morton key.
const MaxLevel = 21

// encode interleaves the low 21 bits of x, y, and z into a Morton key.
// Bit i of x lands at bit 3i+2, y at 3i+1, z at 3i of the result, so keys
// sort first by x-bit, then y, then z at each level — the classic Z curve.
func encode(x, y, z uint32) uint64 {
	return spread(x)<<2 | spread(y)<<1 | spread(z)
}

// Decode is the inverse of encode.
func Decode(key uint64) (x, y, z uint32) {
	return compact(key >> 2), compact(key >> 1), compact(key)
}

// spread distributes the low 21 bits of v so that bit i moves to bit 3i.
func spread(v uint32) uint64 {
	x := uint64(v) & 0x1fffff
	x = (x | x<<32) & 0x1f00000000ffff
	x = (x | x<<16) & 0x1f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
}

// compact gathers every third bit of v back into the low 21 bits.
func compact(v uint64) uint32 {
	x := v & 0x1249249249249249
	x = (x | x>>2) & 0x10c30c30c30c30c3
	x = (x | x>>4) & 0x100f00f00f00f00f
	x = (x | x>>8) & 0x1f0000ff0000ff
	x = (x | x>>16) & 0x1f00000000ffff
	x = (x | x>>32) & 0x1fffff
	return uint32(x)
}

// BoxKey returns the Morton key of the box containing the unit-cube
// position (ux, uy, uz) at the given subdivision level (2^level boxes per
// dimension). Coordinates are clamped to [0, 1).
func BoxKey(ux, uy, uz float64, level int) uint64 {
	if level < 0 {
		level = 0
	}
	if level > MaxLevel {
		level = MaxLevel
	}
	n := uint32(1) << uint(level)
	return encode(cellIndex(ux, n), cellIndex(uy, n), cellIndex(uz, n))
}

// cellIndex maps a unit coordinate to a cell index in [0, n).
func cellIndex(u float64, n uint32) uint32 {
	if u < 0 {
		u = 0
	}
	i := uint32(u * float64(n))
	if i >= n {
		i = n - 1
	}
	return i
}

// Parent returns the key of the enclosing box one level up.
func Parent(key uint64) uint64 { return key >> 3 }

// Child returns the key of the i-th child (0..7) of a box.
func Child(key uint64, i int) uint64 { return key<<3 | uint64(i&7) }

// Neighbors3 returns the distinct Morton keys of all existing boxes within
// a Chebyshev distance of 1 of the box with the given key at the given
// level, including the box itself. If periodic is true, neighbor coordinates
// wrap around (boxes that wrap onto the same cell are reported once);
// otherwise out-of-range neighbors are omitted.
func Neighbors3(key uint64, level int, periodic bool) []uint64 {
	return Neighbors3Into(make([]uint64, 0, 27), key, level, periodic)
}

// Neighbors3Into is Neighbors3 appending into dst[:0] (grown as needed),
// for hot paths that reuse a scratch slice across calls. Duplicates from
// periodic wrapping are filtered by a linear scan over the at-most-27
// keys already emitted, so the result and its order are identical to
// Neighbors3's and no per-call map is built.
//
//parlint:hotalloc
func Neighbors3Into(dst []uint64, key uint64, level int, periodic bool) []uint64 {
	n := uint32(1) << uint(level)
	x, y, z := Decode(key)
	out := dst[:0]
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for dz := -1; dz <= 1; dz++ {
				nx, okx := wrap(int64(x)+int64(dx), n, periodic)
				ny, oky := wrap(int64(y)+int64(dy), n, periodic)
				nz, okz := wrap(int64(z)+int64(dz), n, periodic)
				if okx && oky && okz {
					k := encode(nx, ny, nz)
					dup := false
					for _, prev := range out {
						if prev == k {
							dup = true
							break
						}
					}
					if !dup {
						out = append(out, k)
					}
				}
			}
		}
	}
	return out
}

func wrap(v int64, n uint32, periodic bool) (uint32, bool) {
	if v < 0 || v >= int64(n) {
		if !periodic {
			return 0, false
		}
		v = ((v % int64(n)) + int64(n)) % int64(n)
	}
	return uint32(v), true
}
