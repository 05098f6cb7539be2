package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
)

// digest identifies a multiset of lines: the wrapping sum of each
// line's FNV-1a hash, the line count and the count per event type.
// Summing makes it independent of arrival order, which the sharded
// runtime does not fix within a tick.
type digest struct {
	Sum     uint64
	Lines   int
	perType []typeCount
}

type typeCount struct {
	name string
	n    int
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnv1a(b []byte) uint64 {
	h := uint64(fnvOffset)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// add folds one line, without its newline, into the digest.
func (d *digest) add(line []byte) {
	d.Sum += fnv1a(line)
	d.Lines++
	typ := line
	if p := bytes.IndexByte(line, '|'); p >= 0 {
		typ = line[:p]
	}
	for i := range d.perType {
		if d.perType[i].name == string(typ) {
			d.perType[i].n++
			return
		}
	}
	d.perType = append(d.perType, typeCount{string(typ), 1})
}

// digestOf digests every line of a newline-terminated buffer.
func digestOf(data []byte) digest {
	var d digest
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			nl = len(data)
		}
		d.add(data[:nl])
		data = data[min(nl+1, len(data)):]
	}
	return d
}

// String renders the digest canonically; two digests are equal
// exactly when their strings are.
func (d digest) String() string {
	tc := append([]typeCount(nil), d.perType...)
	sort.Slice(tc, func(i, j int) bool { return tc[i].name < tc[j].name })
	var b strings.Builder
	fmt.Fprintf(&b, "fnv=%016x lines=%d", d.Sum, d.Lines)
	for _, t := range tc {
		fmt.Fprintf(&b, " %s=%d", t.name, t.n)
	}
	return b.String()
}
