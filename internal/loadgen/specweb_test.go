package loadgen

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestFileSetLookup(t *testing.T) {
	fs := NewFileSet(2)
	for dir := 0; dir < 2; dir++ {
		for class := 0; class < 4; class++ {
			for file := 1; file <= 9; file++ {
				path := fs.Path(dir, class, file)
				data, ok := fs.Lookup(path)
				if !ok {
					t.Fatalf("Lookup(%q) missing", path)
				}
				if len(data) != fs.Size(class, file) {
					t.Errorf("%q: size %d, want %d", path, len(data), fs.Size(class, file))
				}
			}
		}
	}
}

func TestFileSetMissingPaths(t *testing.T) {
	fs := NewFileSet(1)
	for _, path := range []string{
		"/",
		"/nope",
		"/dir1/class0_1.html", // dir out of range
		"/dir0/class4_1.html", // class out of range
		"/dir0/class0_0.html", // file out of range
		"/dir0/class0_10.html",
		"/dirX/class0_1.html",
		// Non-canonical spellings of /dir0/class0_1.html and friends: each
		// would seed its own body and keep it, so none may resolve.
		"/dir0/class0_1.htmlXYZ",
		"/dir0/class3_9.html1",
		"/dir+0/class0_1.html",
		"/dir-0/class0_1.html",
		"/dir00/class0_01.html",
		"/dir0/class00_1.html",
		"/dir0/class+0_1.html",
		"/dir 0/class0_1.html",
		"/dir0/class0_1.htm",
		"/dir0/class0_1.html/",
		"dir0/class0_1.html",
		"",
	} {
		if _, ok := fs.Lookup(path); ok {
			t.Errorf("Lookup(%q) should miss", path)
		}
	}
	if n := fs.resident(); n != 0 {
		t.Errorf("%d bodies resident after only missing lookups", n)
	}
}

// TestFileSetIndexRoundTrip: every canonical path, multi-digit
// directories included, maps to its own file index with the right size,
// without synthesizing any body.
func TestFileSetIndexRoundTrip(t *testing.T) {
	fs := NewFileSet(12)
	seen := make(map[int]bool)
	for d := 0; d < fs.Dirs; d++ {
		for c := 0; c < 4; c++ {
			for f := 1; f <= 9; f++ {
				p := fs.Path(d, c, f)
				i, ok := fs.index(p)
				if !ok {
					t.Fatalf("index(%q) missing", p)
				}
				if seen[i] {
					t.Fatalf("index(%q) = %d, already taken", p, i)
				}
				seen[i] = true
				if fs.indexSize(i) != fs.Size(c, f) {
					t.Fatalf("%q: indexSize %d, want %d", p, fs.indexSize(i), fs.Size(c, f))
				}
			}
		}
	}
	if _, ok := fs.index("/dir12/class0_1.html"); ok {
		t.Error("index accepted a directory past Dirs")
	}
	if n := fs.resident(); n != 0 {
		t.Errorf("%d bodies resident after index lookups", n)
	}
}

// resident counts the bodies Lookup has synthesized and kept.
func (fs *FileSet) resident() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n := 0
	for _, b := range fs.bodies {
		if b != nil {
			n++
		}
	}
	return n
}

func TestFileSetDeterministic(t *testing.T) {
	a := NewFileSet(1)
	b := NewFileSet(1)
	path := a.Path(0, 2, 5)
	da, _ := a.Lookup(path)
	db, _ := b.Lookup(path)
	if !bytes.Equal(da, db) {
		t.Error("content differs across instances")
	}
	// Cached lookups return identical content.
	da2, _ := a.Lookup(path)
	if !bytes.Equal(da, da2) {
		t.Error("content differs across lookups")
	}
}

func TestFileSetTotalBytes(t *testing.T) {
	fs := NewFileSet(1)
	// Per directory: sum over classes of base*(1+..+9) = 45*(100+1000+10000+100000).
	want := int64(45 * 111100)
	if got := fs.TotalBytes(); got != want {
		t.Errorf("TotalBytes = %d, want %d", got, want)
	}
	if got := NewFileSet(3).TotalBytes(); got != 3*want {
		t.Errorf("3-dir TotalBytes = %d, want %d", got, 3*want)
	}
}

func TestSamplerDistribution(t *testing.T) {
	fs := NewFileSet(4)
	s := NewRequestSampler(fs, 42)
	classCounts := make([]int, 4)
	dirCounts := make(map[int]int)
	const n = 20000
	for i := 0; i < n; i++ {
		path := s.Next()
		var dir, class, file int
		if _, err := fmt.Sscanf(path, "/dir%d/class%d_%d.html", &dir, &class, &file); err != nil {
			t.Fatalf("malformed path %q", path)
		}
		if _, ok := fs.Lookup(path); !ok {
			t.Fatalf("sampled path %q not in corpus", path)
		}
		classCounts[class]++
		dirCounts[dir]++
	}
	// Class mix ~ 35/50/14/1 (±5 points).
	wantFrac := []float64{0.35, 0.50, 0.14, 0.01}
	for c, count := range classCounts {
		frac := float64(count) / n
		if frac < wantFrac[c]-0.05 || frac > wantFrac[c]+0.05 {
			t.Errorf("class %d fraction = %.3f, want ~%.2f", c, frac, wantFrac[c])
		}
	}
	// Zipf: dir 0 must dominate dir 3.
	if dirCounts[0] <= dirCounts[3] {
		t.Errorf("zipf skew missing: dir0=%d dir3=%d", dirCounts[0], dirCounts[3])
	}
}

func TestSamplerSeedsIndependent(t *testing.T) {
	fs := NewFileSet(2)
	a := NewRequestSampler(fs, 1)
	b := NewRequestSampler(fs, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same == 100 {
		t.Error("different seeds produced identical streams")
	}
}

// TestMixSamplerDistribution checks the full SPECweb99-like operation
// mix converges: the dynamic share, the POST share of dynamic, and —
// within the static share — the published 35/50/14/1 class split.
func TestMixSamplerDistribution(t *testing.T) {
	fs := NewFileSet(4)
	m := NewMixSampler(fs, 42, -1, -1) // negative: SPECweb99 defaults
	const n = 40000
	counts := make(map[string]int)
	var static, dynamic, post int
	for i := 0; i < n; i++ {
		op := m.Next()
		counts[op.Class]++
		switch op.Class {
		case "dynamic":
			dynamic++
			if op.Method != "GET" || !strings.HasPrefix(op.Path, "/adrotate") {
				t.Fatalf("dynamic op = %+v", op)
			}
		case "post":
			post++
			if op.Method != "POST" || op.Body == "" {
				t.Fatalf("post op = %+v", op)
			}
		default:
			static++
			if op.Method != "GET" {
				t.Fatalf("static op = %+v", op)
			}
			if _, ok := fs.Lookup(op.Path); !ok {
				t.Fatalf("static path %q not in corpus", op.Path)
			}
		}
	}

	// Dynamic (GET+POST) share ~ 30% (±2 points of all requests).
	dynFrac := float64(dynamic+post) / n
	if dynFrac < DefaultDynamicFraction-0.02 || dynFrac > DefaultDynamicFraction+0.02 {
		t.Errorf("dynamic share = %.3f, want ~%.2f", dynFrac, DefaultDynamicFraction)
	}
	// POST share of dynamic ~ 16% (±3 points).
	postFrac := float64(post) / float64(dynamic+post)
	if postFrac < DefaultPostFraction-0.03 || postFrac > DefaultPostFraction+0.03 {
		t.Errorf("post share of dynamic = %.3f, want ~%.2f", postFrac, DefaultPostFraction)
	}
	// Static classes ~ 35/50/14/1 of the static share (±3 points).
	wantFrac := []float64{0.35, 0.50, 0.14, 0.01}
	for c, want := range wantFrac {
		frac := float64(counts[staticClassNames[c]]) / float64(static)
		if frac < want-0.03 || frac > want+0.03 {
			t.Errorf("static class %d fraction = %.3f, want ~%.2f", c, frac, want)
		}
	}
}

// TestMixSamplerZeroFractionsAllStatic: zero fractions disable the
// dynamic mix entirely (the original static-only harness shape).
func TestMixSamplerZeroFractionsAllStatic(t *testing.T) {
	fs := NewFileSet(1)
	m := NewMixSampler(fs, 7, 0, 0)
	for i := 0; i < 2000; i++ {
		op := m.Next()
		if op.Method != "GET" || op.Class == "dynamic" || op.Class == "post" {
			t.Fatalf("op %d = %+v, want static GET", i, op)
		}
	}
}

// TestMixSamplerDeterministicPerSeed: the same seed replays the same
// operation stream (runs must be reproducible), and distinct seeds
// diverge.
func TestMixSamplerDeterministicPerSeed(t *testing.T) {
	fs := NewFileSet(2)
	a := NewMixSampler(fs, 99, -1, -1)
	b := NewMixSampler(fs, 99, -1, -1)
	for i := 0; i < 500; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("same seed diverged at op %d", i)
		}
	}
	c := NewMixSampler(fs, 100, -1, -1)
	d := NewMixSampler(fs, 99, -1, -1)
	same := true
	for i := 0; i < 100; i++ {
		if c.Next() != d.Next() {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

// TestFileSetConcurrentDeterministic: concurrent clients racing on the
// lazily-synthesized corpus must all observe identical contents (run
// under -race in CI, this also proves the cache fill is synchronized).
func TestFileSetConcurrentDeterministic(t *testing.T) {
	ref := NewFileSet(2)
	fs := NewFileSet(2)
	var paths []string
	for dir := 0; dir < 2; dir++ {
		for class := 0; class < 4; class++ {
			for file := 1; file <= 9; file++ {
				paths = append(paths, fs.Path(dir, class, file))
			}
		}
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker walks the paths at a different offset so
			// first-touch synthesis races across the whole corpus.
			for i := range paths {
				p := paths[(i+w*5)%len(paths)]
				got, ok := fs.Lookup(p)
				if !ok {
					errs <- fmt.Errorf("worker %d: %q missing", w, p)
					return
				}
				want, _ := ref.Lookup(p)
				if !bytes.Equal(got, want) {
					errs <- fmt.Errorf("worker %d: %q content differs", w, p)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestQuickSampledPathsAlwaysResolve: every sampled path resolves for
// arbitrary seeds and corpus sizes.
func TestQuickSampledPathsAlwaysResolve(t *testing.T) {
	f := func(seed int64, dirs uint8) bool {
		fs := NewFileSet(int(dirs%8) + 1)
		s := NewRequestSampler(fs, seed)
		for i := 0; i < 50; i++ {
			if _, ok := fs.Lookup(s.Next()); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestMaterializeDiskPath: Materialize must leave no body resident, the
// on-disk mirror must hold byte-identical bodies for every corpus path,
// DiskPath must agree with Lookup on sizes and membership, and an
// unmaterialized set must report no disk paths at all.
func TestMaterializeDiskPath(t *testing.T) {
	fs := NewFileSet(2)
	if _, _, ok := fs.DiskPath(fs.Path(0, 0, 1)); ok {
		t.Fatal("DiskPath ok before Materialize")
	}
	dir := t.TempDir()
	if err := fs.Materialize(dir); err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	t.Cleanup(func() { fs.Close() })
	if n := fs.resident(); n != 0 {
		t.Fatalf("%d bodies resident after Materialize, want 0", n)
	}
	for d := 0; d < fs.Dirs; d++ {
		for c := 0; c < 4; c++ {
			for f := 1; f <= 9; f++ {
				p := fs.Path(d, c, f)
				name, size, ok := fs.DiskPath(p)
				if !ok {
					t.Fatalf("DiskPath(%s) not ok after Materialize", p)
				}
				want, _ := fs.Lookup(p)
				if size != int64(len(want)) {
					t.Fatalf("DiskPath(%s) size = %d, want %d", p, size, len(want))
				}
				got, err := os.ReadFile(name)
				if err != nil {
					t.Fatalf("read %s: %v", name, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("materialized %s differs from in-memory body", p)
				}
			}
		}
	}
	if _, _, ok := fs.DiskPath("/outside/corpus.html"); ok {
		t.Fatal("DiskPath ok for a path outside the corpus")
	}
}

// openFDs counts this process's open descriptors, or -1 where /proc is
// not mounted.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestMaterializeSharedHandles: Resolve hands out the corpus's own path
// string and, once materialized, one shared read-only handle per file
// holding Lookup's bytes. A second Materialize is refused without
// opening anything, and Close releases the handles.
func TestMaterializeSharedHandles(t *testing.T) {
	fs := NewFileSet(1)
	p := fs.Path(0, 3, 9)
	if key, _, disk, ok := fs.Resolve(string(append([]byte(nil), p...))); !ok || disk != nil ||
		unsafe.StringData(key) != unsafe.StringData(p) {
		t.Fatalf("Resolve before Materialize = %q %v %v, want the interned path and no handle", key, disk, ok)
	}
	if err := fs.Materialize(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	handles := map[*os.File]bool{}
	for c := 0; c < 4; c++ {
		for file := 1; file <= 9; file++ {
			key, size, disk, ok := fs.Resolve(fs.Path(0, c, file))
			if !ok || disk == nil {
				t.Fatalf("%s: no handle after Materialize", key)
			}
			want, _ := fs.Lookup(key)
			got := make([]byte, size)
			if _, err := disk.ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: handle reads %d bytes (%v), want Lookup's %d", key, len(got), err, len(want))
			}
			handles[disk] = true
		}
	}
	if len(handles) != filesPerDir {
		t.Fatalf("%d distinct handles, want one per file (%d)", len(handles), filesPerDir)
	}

	before := openFDs()
	again := t.TempDir()
	if err := fs.Materialize(again); err == nil {
		t.Fatal("second Materialize accepted")
	}
	if after := openFDs(); after != before {
		t.Fatalf("refused Materialize changed the open descriptors from %d to %d", before, after)
	}
	if ents, _ := os.ReadDir(again); len(ents) != 0 {
		t.Fatalf("refused Materialize wrote %d files", len(ents))
	}
	if _, _, disk, _ := fs.Resolve(p); !handles[disk] {
		t.Fatal("refused Materialize replaced a handle")
	}

	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, disk, _ := fs.Resolve(p); disk != nil {
		t.Fatal("Resolve reports a handle after Close")
	}
	if _, _, ok := fs.DiskPath(p); ok {
		t.Fatal("DiskPath ok after Close")
	}
	if before >= 0 && openFDs() != before-filesPerDir {
		t.Fatalf("Close left descriptors open: %d, want %d", openFDs(), before-filesPerDir)
	}
}
