package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"github.com/flux-lang/flux/internal/loadgen"
	"github.com/flux-lang/flux/internal/servers/webserver/fscript"
)

type opKind uint8

const (
	opStatic opKind = iota
	opAd
	opDyn
	opPost
)

// op is one pre-rendered request with everything needed to verify its
// response, so the generator formats nothing on the hot path.
type op struct {
	kind   opKind
	req    []byte
	status int
	// body is the expected response body. The ad-rotation page depends on
	// the server's shared rotation counter, so its ops carry one valid
	// body per rotation residue in variants and leave body nil.
	body     []byte
	variants [][]byte
	path     string // URL path: the cache key, and the replay's input
	query    string
	postBody string
	sendfile bool  // a body the server streams with sendfile(2)
	gapNs    int64 // openLoop: wait after this op's due time until the next one's
}

// lengthOK reports whether n is a valid Content-Length for the op.
func (o *op) lengthOK(n int) bool {
	if o.variants == nil {
		return n == len(o.body)
	}
	for _, v := range o.variants {
		if n == len(v) {
			return true
		}
	}
	return false
}

// bodyOK reports whether got is a valid body for the op.
func (o *op) bodyOK(got []byte) bool {
	if o.variants == nil {
		return bytes.Equal(got, o.body)
	}
	for _, v := range o.variants {
		if bytes.Equal(got, v) {
			return true
		}
	}
	return false
}

// oracle renders the expected dynamic bodies through the bare FScript
// interpreter, so the compiled pages the server uses are checked against
// an implementation they share no code with.
type oracle struct {
	pages *fscript.BenchPages
	dyn   []byte
	ads   map[int][][]byte
}

func newOracle() (*oracle, error) {
	pages, err := fscript.NewBenchPages()
	if err != nil {
		return nil, err
	}
	pages.SetDispatch(fscript.DispatchInterpretRaw)
	dyn, err := pages.RenderTo(nil, "/dynamic", "", dynamicWork)
	if err != nil {
		return nil, err
	}
	return &oracle{pages: pages, dyn: dyn, ads: make(map[int][][]byte)}, nil
}

// adBodies returns the eight bodies the ad page can take for a user: the
// page shows (user+rot)%8, and eight consecutive renders step the
// rotation counter through every residue.
func (or *oracle) adBodies(user int) ([][]byte, error) {
	if v, ok := or.ads[user]; ok {
		return v, nil
	}
	out := make([][]byte, 8)
	for i := range out {
		b, err := or.pages.RenderTo(nil, "/adrotate", fmt.Sprintf("u=%d", user), dynamicWork)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	or.ads[user] = out
	return out, nil
}

func requestBytes(method, target, body string, closing bool) []byte {
	conn := "keep-alive"
	if closing {
		conn = "close"
	}
	if method == "POST" {
		return []byte(fmt.Sprintf("POST %s HTTP/1.1\r\nHost: bench\r\nConnection: %s\r\nContent-Length: %d\r\n\r\n%s",
			target, conn, len(body), body))
	}
	return []byte(fmt.Sprintf("GET %s HTTP/1.1\r\nHost: bench\r\nConnection: %s\r\n\r\n", target, conn))
}

// apportion splits n into whole counts proportional to weights, by
// largest remainder, so every seed draws the same multiset of ops.
func apportion(weights []float64, n int) []int {
	var total float64
	for _, w := range weights {
		total += w
	}
	counts := make([]int, len(weights))
	rem := make([]float64, len(weights))
	left := n
	for i, w := range weights {
		exact := w / total * float64(n)
		counts[i] = int(math.Floor(exact))
		rem[i] = exact - float64(counts[i])
		left -= counts[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
	}
	return counts
}

// buildTape renders one connection's op tape. The mix is stratified: the
// count of each kind of op, and the spread of static ops over directories
// and files, are the same for every seed; the seed decides which file
// follows which, the ad users and the arrival gaps. Byte volume and work
// per tape cycle therefore do not vary with the seed, only their order.
func buildTape(w *workload, files *loadgen.FileSet, or *oracle, seed int64, conn, conns int) ([]op, error) {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(conn)*7919 + int64(h.Sum64()&0xffff)))

	m := w.mix
	counts := apportion([]float64{m.static[0], m.static[1], m.static[2], m.static[3], m.ad, m.dyn, m.post}, tapeLen)
	closing := w.loop == closedFresh
	tape := make([]op, 0, tapeLen)

	for class := 0; class < 4; class++ {
		pairs := rng.Perm(w.dirs * 9)
		for k := 0; k < counts[class]; k++ {
			p := pairs[k%len(pairs)]
			path := files.Path(p/9, class, p%9+1)
			body, ok := files.Lookup(path)
			if !ok {
				return nil, fmt.Errorf("bench: corpus has no %s", path)
			}
			tape = append(tape, op{
				kind: opStatic, req: requestBytes("GET", path, "", closing), status: 200,
				body: body, path: path,
				sendfile: w.materialize && len(body) >= sendfileFrom,
			})
		}
	}
	for k := 0; k < counts[4]; k++ {
		user := rng.Intn(adUsers)
		variants, err := or.adBodies(user)
		if err != nil {
			return nil, err
		}
		query := fmt.Sprintf("u=%d&r=%d", user, k)
		tape = append(tape, op{
			kind: opAd, req: requestBytes("GET", "/adrotate?"+query, "", closing), status: 200,
			variants: variants, path: "/adrotate", query: query,
		})
	}
	for k := 0; k < counts[5]; k++ {
		query := fmt.Sprintf("n=%d", dynamicWork)
		tape = append(tape, op{
			kind: opDyn, req: requestBytes("GET", "/dynamic?"+query, "", closing), status: 200,
			body: or.dyn, path: "/dynamic", query: query,
		})
	}
	for k := 0; k < counts[6]; k++ {
		form := fmt.Sprintf("uid=%d&seq=%d&field=specweb", rng.Intn(10000), k)
		// Written out here, not taken from httpkit, so that the check
		// does not share the code it checks.
		page := fmt.Sprintf("<html><body><p>POST /post: received %d bytes</p></body></html>", len(form))
		tape = append(tape, op{
			kind: opPost, req: requestBytes("POST", "/post", form, closing), status: 200,
			body: []byte(page), path: "/post", postBody: form,
		})
	}

	rng.Shuffle(len(tape), func(i, j int) { tape[i], tape[j] = tape[j], tape[i] })
	if w.loop == openLoop {
		meanGap := float64(conns) / w.rate * 1e9
		for i := range tape {
			tape[i].gapNs = int64(rng.ExpFloat64() * meanGap)
		}
	}
	return tape, nil
}
