package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// A minimal reader of the gzip'd pprof protobuf that runtime/pprof writes:
// enough of profile.proto (sample, location, line, function, string_table)
// to give every sample its call stack as function names. It keeps go.mod
// free of the pprof module.

// profSample is one profile sample: its stack as function names, leaf-most
// frame first (inlined frames expanded), and its last value — for a CPU
// profile the nanoseconds the sample stands for.
type profSample struct {
	Stack []string
	Value int64
}

// protobuf wire types.
const (
	wireVarint = 0
	wireFixed8 = 1
	wireBytes  = 2
	wireFixed4 = 5
)

var errTruncated = errors.New("pprof: truncated message")

// protoReader walks the fields of one protobuf message.
type protoReader struct{ b []byte }

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflows 64 bits")
}

// next returns the next field: its number, wire type, and either the varint
// value or the length-delimited payload. Fixed-width fields are skipped over
// and returned with a nil payload.
func (r *protoReader) next() (field int, wire int, val uint64, payload []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case wireVarint:
		val, err = r.varint()
	case wireBytes:
		var n uint64
		if n, err = r.varint(); err != nil {
			break
		}
		if n > uint64(len(r.b)) {
			return 0, 0, 0, nil, errTruncated
		}
		payload, r.b = r.b[:n], r.b[n:]
	case wireFixed8, wireFixed4:
		n := 8
		if wire == wireFixed4 {
			n = 4
		}
		if len(r.b) < n {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[n:]
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", wire)
	}
	return field, wire, val, payload, err
}

// repeatedVarints appends a repeated integer field's value(s): one varint,
// or a packed run of them.
func repeatedVarints(dst []uint64, wire int, val uint64, payload []byte) ([]uint64, error) {
	if wire == wireVarint {
		return append(dst, val), nil
	}
	p := protoReader{payload}
	for len(p.b) > 0 {
		v, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// readProfile parses a gzip'd pprof profile into samples.
func readProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		locations = map[uint64][]uint64{} // location id -> function ids, leaf-most first
		functions = map[uint64]uint64{}   // function id -> name string index
		strs      []string
	)
	top := protoReader{raw}
	for len(top.b) > 0 {
		field, _, _, payload, err := top.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // sample
			var s rawSample
			m := protoReader{payload}
			for len(m.b) > 0 {
				f, w, v, p, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					s.locs, err = repeatedVarints(s.locs, w, v, p)
				case 2:
					s.values, err = repeatedVarints(s.values, w, v, p)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			m := protoReader{payload}
			for len(m.b) > 0 {
				f, _, v, p, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // line: the first entry is the innermost inlined call
					l := protoReader{p}
					for len(l.b) > 0 {
						lf, _, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locations[id] = fns
		case 5: // function
			var id, name uint64
			m := protoReader{payload}
			for len(m.b) > 0 {
				f, _, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			functions[id] = name
		case 6: // string_table
			strs = append(strs, string(payload))
		}
	}

	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{}
		if n := len(s.values); n > 0 {
			ps.Value = int64(s.values[n-1])
		}
		for _, loc := range s.locs {
			for _, fn := range locations[loc] {
				idx := functions[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("pprof: function %d names string %d of %d", fn, idx, len(strs))
				}
				ps.Stack = append(ps.Stack, strs[idx])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}
