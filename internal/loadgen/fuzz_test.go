package loadgen

import (
	"fmt"
	"path/filepath"
	"testing"
)

// FuzzCorpusPath feeds arbitrary strings to the corpus path parser.
// Lookup must succeed exactly when the string is Path(d, c, f) for an
// in-range (d, c, f) — any other spelling of a file would get its own
// body and cache slot — and DiskPath on the materialized corpus must
// agree with Lookup on membership, size and file name.
//
// Run `go test -fuzz=FuzzCorpusPath ./internal/loadgen/` to explore
// beyond the seeds.
func FuzzCorpusPath(f *testing.F) {
	for _, s := range []string{
		"/dir0/class0_1.html",
		"/dir1/class3_9.html",
		"/dir2/class0_1.html",
		"/dir10/class0_1.html",
		"/dir0/class0_1.htmlXYZ",
		"/dir+0/class0_1.html",
		"/dir-0/class0_1.html",
		"/dir00/class0_01.html",
		"/dir0/class3_9.html1",
		"/dir0/class0_0.html",
		"/dir0/class4_1.html",
		"/dir99999999999999999999/class0_1.html",
		"dir0/class0_1.html",
		"",
	} {
		f.Add(s)
	}
	fs := NewFileSet(2)
	dir := f.TempDir()
	if err := fs.Materialize(dir); err != nil {
		f.Fatalf("Materialize: %v", err)
	}
	f.Cleanup(func() { fs.Close() })
	f.Fuzz(func(t *testing.T, s string) {
		var d, c, file int
		_, err := fmt.Sscanf(s, "/dir%d/class%d_%d.html", &d, &c, &file)
		canonical := err == nil && d >= 0 && d < fs.Dirs && c >= 0 && c <= 3 &&
			file >= 1 && file <= 9 && fs.Path(d, c, file) == s

		body, ok := fs.Lookup(s)
		if ok != canonical {
			t.Fatalf("Lookup(%q) ok = %v, want %v", s, ok, canonical)
		}
		name, size, diskOK := fs.DiskPath(s)
		if diskOK != ok {
			t.Fatalf("DiskPath(%q) ok = %v, Lookup ok = %v", s, diskOK, ok)
		}
		if !ok {
			return
		}
		if size != int64(len(body)) || size != int64(fs.Size(c, file)) {
			t.Fatalf("%q: DiskPath size %d, Lookup %d bytes, Size %d", s, size, len(body), fs.Size(c, file))
		}
		if want := filepath.Join(dir, diskName(s)); name != want {
			t.Fatalf("DiskPath(%q) = %q, want %q", s, name, want)
		}
	})
}
