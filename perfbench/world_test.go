package main

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestRelabelKeepsTheWorld checks what --seed may change: two seeds give
// different entity names, IDs and dump bytes, but the same revisions once
// the relabelling prefix is removed, so every seed does the same work.
func TestRelabelKeepsTheWorld(t *testing.T) {
	spec := worldSpec{domain: "soccer", seeds: 10, years: 1, worldSeed: 1}
	a, err := buildInput(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildInput(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.dump, b.dump) {
		t.Fatal("two seeds rendered the same dump")
	}
	same := 0
	for i := range a.seeds {
		if a.seeds[i] == b.seeds[i] {
			same++
		}
	}
	if same == len(a.seeds) {
		t.Error("two seeds kept every seed entity's ID")
	}
	// The dump lists articles in ID order, which the seed shuffles.
	strip := func(in *input) []string {
		lines := strings.Split(string(bytes.ReplaceAll(in.dump, []byte(in.prefix), nil)), "\n")
		sort.Strings(lines)
		return lines
	}
	if a.revs != b.revs || !reflect.DeepEqual(strip(a), strip(b)) {
		t.Errorf("the dumps differ beyond the prefix and article order: %d vs %d revisions", a.revs, b.revs)
	}
	again, err := buildInput(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.dump, b.dump) {
		t.Error("one seed rendered two different dumps")
	}
}
