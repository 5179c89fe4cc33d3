// Package loadgen generates the paper's evaluation workloads: the
// SPECweb99-like static web mix (§4.2), the BitTorrent downloader swarm
// (§4.3), the 10 Hz game clients (§4.4), and the fixed-rate image-server
// clients (§5.1), together with the client drivers that measure
// throughput and latency against a running server.
package loadgen

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// FileSet is the synthetic static corpus of the SPECweb99-like benchmark:
// directories each holding four classes of files (nine files per class),
// with class sizes spanning 100 B to 900 KB. Contents are deterministic
// so repeated runs and concurrent clients agree. A body becomes resident
// the first time Lookup asks for it and then stays, matching the paper's
// note that the working set fits in RAM and the benchmark primarily
// stresses CPU; a materialized corpus (see Materialize) is written to
// disk without becoming resident, so files served with sendfile(2) never
// enter memory at all.
type FileSet struct {
	Dirs int

	// paths is Path's rendering of every file, by file index, built once:
	// a server keys its cache with these strings, which outlive the
	// request buffers the looked-up paths came from.
	paths []string

	mu     sync.Mutex
	bodies [][]byte // by file index; nil until Lookup asks for it
	// disk, once Materialize has run, is the on-disk corpus: the
	// sendfile(2) serving path streams large bodies from it instead of
	// user-space memory.
	disk atomic.Pointer[diskCorpus]
}

// diskCorpus is a materialized corpus, by file index: each file's name
// and one read-only handle that every connection shares.
type diskCorpus struct {
	names []string
	files []*os.File
}

// SPECweb99's four file classes: probability of selection and base size.
// Class sizes are base*(1..9); the published mix is 35% / 50% / 14% / 1%.
var classes = [4]struct {
	Prob float64
	Base int
}{
	{0.35, 100},
	{0.50, 1000},
	{0.14, 10000},
	{0.01, 100000},
}

// filesPerDir is the corpus's file count per directory: four classes of
// nine files. File index i names dir i/filesPerDir, class i/9%4, file
// i%9+1.
const filesPerDir = 4 * 9

// NewFileSet builds a corpus with the given directory count. Each
// directory holds ~5 MB, so 6 directories approximate the paper's ~32 MB
// working set; tests use fewer.
func NewFileSet(dirs int) *FileSet {
	if dirs <= 0 {
		dirs = 1
	}
	fs := &FileSet{Dirs: dirs, paths: make([]string, dirs*filesPerDir), bodies: make([][]byte, dirs*filesPerDir)}
	for i := range fs.paths {
		fs.paths[i] = renderPath(i/filesPerDir, i/9%4, i%9+1)
	}
	return fs
}

// Path renders the canonical URL path for (dir, class, file); a file of
// the corpus gets its one shared string.
func (fs *FileSet) Path(dir, class, file int) string {
	if dir >= 0 && dir < fs.Dirs && class >= 0 && class < 4 && file >= 1 && file <= 9 {
		return fs.paths[dir*filesPerDir+class*9+file-1]
	}
	return renderPath(dir, class, file)
}

func renderPath(dir, class, file int) string {
	return fmt.Sprintf("/dir%d/class%d_%d.html", dir, class, file)
}

// Size returns the byte size of (class, file) per the class table;
// file is 1-based (1..9).
func (fs *FileSet) Size(class, file int) int {
	return classes[class].Base * file
}

// indexSize returns the byte size of the file at index i.
func (fs *FileSet) indexSize(i int) int {
	return fs.Size(i/9%4, i%9+1)
}

// index maps a URL path to its file index. It accepts exactly the
// rendering of Path for an in-range (dir, class, file) — no sign, no
// leading zero, no trailing byte — so every corpus file has one name and
// anything else is outside the corpus.
func (fs *FileSet) index(path string) (int, bool) {
	rest, ok := strings.CutPrefix(path, "/dir")
	if !ok {
		return 0, false
	}
	n, dir := 0, 0
	for ; n < len(rest) && '0' <= rest[n] && rest[n] <= '9'; n++ {
		dir = dir*10 + int(rest[n]-'0')
		if dir >= fs.Dirs {
			return 0, false // also stops the digits before they overflow
		}
	}
	if n == 0 || (n > 1 && rest[0] == '0') {
		return 0, false
	}
	// What is left must be exactly "/classC_F.html".
	tail := rest[n:]
	if len(tail) != len("/class0_1.html") || tail[:6] != "/class" || tail[7] != '_' || tail[9:] != ".html" {
		return 0, false
	}
	class, file := tail[6], tail[8]
	if class < '0' || class > '3' || file < '1' || file > '9' {
		return 0, false
	}
	return dir*filesPerDir + int(class-'0')*9 + int(file-'1'), true
}

// Lookup fetches a file's contents by path, or false for paths outside
// the corpus. The body is synthesized on the first Lookup and kept.
func (fs *FileSet) Lookup(path string) ([]byte, bool) {
	i, ok := fs.index(path)
	if !ok {
		return nil, false
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.bodies[i] == nil {
		fs.bodies[i] = synthesize(make([]byte, fs.indexSize(i)), path)
	}
	return fs.bodies[i], true
}

// Resolve maps a URL path to its corpus file without reading or
// synthesizing the body, or ok=false for paths outside the corpus. key
// is the corpus's own copy of the path (see FileSet.paths). disk is the
// materialized copy's shared read-only handle, nil before Materialize:
// readers must leave its offset alone — ReadAt, or sendfile(2) at an
// explicit offset — because every connection reads it at once.
func (fs *FileSet) Resolve(path string) (key string, size int64, disk *os.File, ok bool) {
	i, ok := fs.index(path)
	if !ok {
		return "", 0, nil, false
	}
	if d := fs.disk.Load(); d != nil {
		disk = d.files[i]
	}
	return fs.paths[i], int64(fs.indexSize(i)), disk, true
}

// Materialize writes the whole corpus to dir — one flat file per URL
// path, deterministic contents identical to Lookup's — and keeps one
// read-only handle per file, so servers stream large static bodies with
// sendfile(2) from shared handles instead of copying them through user
// space or opening a file per request. No body becomes resident: each
// file is synthesized into one reused buffer and written out. A FileSet
// is materialized once: a second call is refused, and the handles stay
// open until Close. Call it before handing the set to servers and load
// generators (their in-memory Lookup view is unchanged).
func (fs *FileSet) Materialize(dir string) error {
	if fs.disk.Load() != nil {
		return errMaterialized
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	d := &diskCorpus{names: make([]string, len(fs.bodies)), files: make([]*os.File, 0, len(fs.bodies))}
	buf := make([]byte, classes[3].Base*9)
	for i := range d.names {
		urlPath := fs.paths[i]
		d.names[i] = filepath.Join(dir, diskName(urlPath))
		body := synthesize(buf[:fs.indexSize(i)], urlPath)
		err := os.WriteFile(d.names[i], body, 0o644)
		var f *os.File
		if err == nil {
			f, err = os.Open(d.names[i])
		}
		if err != nil {
			d.close()
			return err
		}
		d.files = append(d.files, f)
	}
	if !fs.disk.CompareAndSwap(nil, d) {
		d.close()
		return errMaterialized
	}
	return nil
}

var errMaterialized = errors.New("loadgen: corpus already materialized")

// Close releases a materialized corpus's file handles; the files stay
// on disk and DiskPath and Resolve stop reporting them. Call it only once
// no server is sending from the set.
func (fs *FileSet) Close() error {
	if d := fs.disk.Swap(nil); d != nil {
		return d.close()
	}
	return nil
}

func (d *diskCorpus) close() error {
	var first error
	for _, f := range d.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// DiskPath maps a corpus URL path to its materialized on-disk file and
// size, or ok=false when the corpus is not materialized or the path is
// outside it. Both come from the path alone: no body is read or
// synthesized, and the name was built once by Materialize. Servers send
// from Resolve's shared handle instead of opening the name.
func (fs *FileSet) DiskPath(path string) (name string, size int64, ok bool) {
	d := fs.disk.Load()
	if d == nil {
		return "", 0, false
	}
	i, ok := fs.index(path)
	if !ok {
		return "", 0, false
	}
	return d.names[i], int64(fs.indexSize(i)), true
}

// diskName flattens a corpus URL path into a single file name.
func diskName(urlPath string) string {
	return strings.ReplaceAll(strings.TrimPrefix(urlPath, "/"), "/", "_")
}

// TotalBytes returns the corpus size.
func (fs *FileSet) TotalBytes() int64 {
	var perDir int64
	for c := range classes {
		for f := 1; f <= 9; f++ {
			perDir += int64(fs.Size(c, f))
		}
	}
	return perDir * int64(fs.Dirs)
}

// synthesize fills data with the deterministic pseudo-random printable
// content of path and returns it. The bytes depend only on path and
// len(data), so Materialize's reused buffer yields Lookup's bodies.
func synthesize(data []byte, path string) []byte {
	var seed int64
	for _, c := range path {
		seed = seed*131 + int64(c)
	}
	rng := rand.New(rand.NewSource(seed))
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 \n"
	for i := range data {
		data[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return data
}

// RequestSampler draws request paths with SPECweb99-like popularity:
// directories by a Zipf distribution, classes by the published mix,
// files uniformly.
type RequestSampler struct {
	fs   *FileSet
	rng  *rand.Rand
	zipf *rand.Zipf
}

// NewRequestSampler seeds a sampler; distinct clients should use
// distinct seeds.
func NewRequestSampler(fs *FileSet, seed int64) *RequestSampler {
	rng := rand.New(rand.NewSource(seed))
	var zipf *rand.Zipf
	if fs.Dirs > 1 {
		// s=1.2, v=1 gives the gentle skew SPECweb attributes to
		// directory popularity.
		zipf = rand.NewZipf(rng, 1.2, 1, uint64(fs.Dirs-1))
	}
	return &RequestSampler{fs: fs, rng: rng, zipf: zipf}
}

// Next draws one request path.
func (s *RequestSampler) Next() string {
	path, _ := s.NextClass()
	return path
}

// NextClass draws one request path and reports which of the four
// SPECweb99 file classes it belongs to.
func (s *RequestSampler) NextClass() (path string, class int) {
	dir := 0
	if s.zipf != nil {
		dir = int(s.zipf.Uint64())
	}
	r := s.rng.Float64()
	class = 3
	acc := 0.0
	for c := 0; c < 4; c++ {
		acc += classes[c].Prob
		if r < acc {
			class = c
			break
		}
	}
	file := 1 + s.rng.Intn(9)
	return s.fs.Path(dir, class, file), class
}

// SPECweb99's full operation mix: roughly 70% of requests are static
// GETs (split 35/50/14/1 over the four file classes) and 30% are
// dynamic, of which most are ad-rotation-style dynamic GETs and a small
// share are form POSTs.
const (
	// DefaultDynamicFraction is the dynamic share of all requests.
	DefaultDynamicFraction = 0.30
	// DefaultPostFraction is the POST share of the dynamic requests.
	DefaultPostFraction = 0.16
)

// WebOp is one sampled operation of the SPECweb99-like mix.
type WebOp struct {
	Method string // "GET" or "POST"
	Path   string
	Body   string // POST form payload; empty for GETs
	Class  string // latency bucket: static0..static3, dynamic, post
}

// MixSampler draws the full §4.2 request mix: static GETs with the
// published class distribution, ad-rotation dynamic GETs, and form
// POSTs. Distinct clients should use distinct seeds; the sampled stream
// is deterministic per seed.
type MixSampler struct {
	static   *RequestSampler
	rng      *rand.Rand
	dynFrac  float64
	postFrac float64
	user     int
	seq      int
}

// NewMixSampler seeds a mix sampler. dynamicFraction is the share of
// requests that are dynamic (GET or POST); postFraction is the share of
// those dynamic requests that are POSTs. Negative values select the
// SPECweb99 defaults; zero disables that part of the mix.
func NewMixSampler(fs *FileSet, seed int64, dynamicFraction, postFraction float64) *MixSampler {
	if dynamicFraction < 0 {
		dynamicFraction = DefaultDynamicFraction
	}
	if postFraction < 0 {
		postFraction = DefaultPostFraction
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
	return &MixSampler{
		static:   NewRequestSampler(fs, seed),
		rng:      rng,
		dynFrac:  dynamicFraction,
		postFrac: postFraction,
		user:     rng.Intn(10000),
	}
}

// Next draws one operation from the mix.
func (m *MixSampler) Next() WebOp {
	if m.dynFrac > 0 && m.rng.Float64() < m.dynFrac {
		m.seq++
		if m.postFrac > 0 && m.rng.Float64() < m.postFrac {
			body := fmt.Sprintf("uid=%d&seq=%d&field=specweb", m.user, m.seq)
			return WebOp{Method: "POST", Path: "/post", Body: body, Class: "post"}
		}
		return WebOp{
			Method: "GET",
			Path:   fmt.Sprintf("/adrotate?u=%d&r=%d", m.user, m.seq),
			Class:  "dynamic",
		}
	}
	path, class := m.static.NextClass()
	return WebOp{Method: "GET", Path: path, Class: staticClassNames[class]}
}

// staticClassNames are the latency-bucket labels of the four file
// classes.
var staticClassNames = [4]string{"static0", "static1", "static2", "static3"}
