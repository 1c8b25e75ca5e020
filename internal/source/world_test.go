package source

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wiclean/internal/dump"
)

// writeGenDir writes testWorld in the layout 'wiclean gen' produces:
// universe.jsonl, actions.jsonl and seeds.txt (one entity name a line).
func writeGenDir(t *testing.T, w *testWorld, seeds string) string {
	t.Helper()
	dir := t.TempDir()
	var universe, actions strings.Builder
	if err := dump.WriteUniverse(&universe, w.reg); err != nil {
		t.Fatal(err)
	}
	if err := dump.WriteActions(&actions, w.hist.Records()); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"universe.jsonl": universe.String(),
		"actions.jsonl":  actions.String(),
		"seeds.txt":      seeds,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoadWorldMemoryAndDumpAgree pins that the materializing and the
// streaming source read the same data directory into the same seeds,
// seed type and span.
func TestLoadWorldMemoryAndDumpAgree(t *testing.T) {
	w := newTestWorld(t)
	dir := writeGenDir(t, w, "P1\nP2\n\nP3\n")
	ctx := context.Background()

	opts := DefaultOptions()
	mem, err := LoadWorld(ctx, dir, "", 0, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Kind = KindDump
	lazy, err := LoadWorld(ctx, dir, "", 0, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if mem.Mem == nil || lazy.Mem != nil {
		t.Fatalf("materialized history: memory %v, dump %v; want only memory", mem.Mem != nil, lazy.Mem != nil)
	}
	if len(mem.Seeds) != len(w.players) {
		t.Fatalf("seeds = %d, want %d", len(mem.Seeds), len(w.players))
	}
	if !reflect.DeepEqual(mem.Seeds, lazy.Seeds) || mem.SeedType != lazy.SeedType || mem.Span != lazy.Span {
		t.Fatalf("memory (%v %s %v) and dump (%v %s %v) disagree",
			mem.Seeds, mem.SeedType, mem.Span, lazy.Seeds, lazy.SeedType, lazy.Span)
	}
	if mem.SeedType != "FootballPlayer" || mem.Span != w.hist.Span() {
		t.Fatalf("seed type %s, span %v; want FootballPlayer, %v", mem.SeedType, mem.Span, w.hist.Span())
	}
}

// TestLoadWorldRejections pins the loader's input errors.
func TestLoadWorldRejections(t *testing.T) {
	w := newTestWorld(t)
	ctx := context.Background()
	dumpOpts := DefaultOptions()
	dumpOpts.Kind = KindDump
	httpOpts := DefaultOptions()
	httpOpts.Kind = KindHTTP
	for _, tc := range []struct {
		name string
		data string
		opts Options
		want string
	}{
		{"unknown-seed", writeGenDir(t, w, "P1\nNobody\n"), DefaultOptions(), "unknown entity"},
		{"empty-seeds", writeGenDir(t, w, "\n\n"), DefaultOptions(), "no seed entities"},
		{"dump-without-data", "", dumpOpts, "needs -data"},
		{"http-without-url", writeGenDir(t, w, "P1\n"), httpOpts, "needs -source-url"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadWorld(ctx, tc.data, "soccer", 10, 1, tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}
