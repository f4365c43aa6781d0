package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// This file reads the CPU profile runtime/pprof writes (gzipped
// profile.proto) just far enough to charge each sample to a layer:
// the innermost frame from a packetradio/internal/<module> package, so
// a map insert under radio.(*Transceiver).transmitFrame counts as
// radio. Samples with no module frame (GC workers, the scheduler, the
// benchmark's own loop) count as runtime.

const modulePrefix = "packetradio/internal/"

// moduleShares returns each wallModules entry's share of the profile's
// CPU time; the shares sum to 1 when the profile holds any samples.
func moduleShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	known := map[string]bool{}
	for _, m := range wallModules {
		known[m] = true
	}
	byModule := map[string]float64{}
	total := 0.0
	for _, s := range p.samples {
		mod := p.module(s.locations)
		if !known[mod] {
			mod = "other"
		}
		byModule[mod] += s.weight
		total += s.weight
	}
	shares := map[string]float64{}
	for m, v := range byModule {
		shares[m] = v / total
	}
	return shares, nil
}

type sample struct {
	locations []uint64 // leaf first
	weight    float64  // CPU nanoseconds (the last sample value)
}

type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost inlined first
	functions map[uint64]int64    // function id -> name index
	strings   []string
}

// module names the layer a stack is charged to.
func (p *profile) module(stack []uint64) string {
	for _, loc := range stack {
		for _, fn := range p.locations[loc] {
			i, ok := p.functions[fn]
			if !ok || i < 0 || int(i) >= len(p.strings) {
				continue
			}
			if name, ok := strings.CutPrefix(p.strings[i], modulePrefix); ok {
				if j := strings.IndexAny(name, "./"); j >= 0 {
					name = name[:j]
				}
				return name
			}
		}
	}
	return "runtime"
}

// Field numbers from profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2
	locationID       = 1
	locationLine     = 4
	lineFunctionID   = 1
	functionID       = 1
	functionName     = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case profSample:
			var s sample
			var vals []uint64
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				var err error
				switch f {
				case sampleLocationID:
					s.locations, err = appendVarints(s.locations, v, m)
				case sampleValue:
					vals, err = appendVarints(vals, v, m)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.weight = float64(int64(vals[len(vals)-1]))
			}
			p.samples = append(p.samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case locationID:
					id = v
				case locationLine:
					return eachField(m, func(f int, v uint64, _ []byte) error {
						if f == lineFunctionID {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case profFunction:
			var id uint64
			var name int64
			err := eachField(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case profStringTable:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0: // varint
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1: // fixed64
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5: // fixed32
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return errors.New("unknown protobuf wire type")
		}
		if err := fn(field, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field that was either a
// single value (msg nil) or a packed run.
func appendVarints(dst []uint64, v uint64, msg []byte) ([]uint64, error) {
	if msg == nil {
		return append(dst, v), nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return dst, errTruncated
		}
		dst = append(dst, x)
		msg = msg[n:]
	}
	return dst, nil
}
