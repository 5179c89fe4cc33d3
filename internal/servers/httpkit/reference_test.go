package httpkit

// The strings-based request parser ReadRequest replaced, kept verbatim
// as the reference FuzzReadRequestMatchesReference holds the zero-copy
// parser to: both must accept and reject the same streams and read the
// same requests from them.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
)

func referenceReadRequest(br *bufio.Reader) (Request, error) {
	line, err := referenceReadLine(br)
	if err != nil {
		return Request{}, err
	}
	fields := strings.Fields(line)
	if len(fields) != 3 {
		return Request{}, fmt.Errorf("httpkit: malformed request line %q", line)
	}
	r := Request{Method: fields[0]}
	if r.Method != "GET" && r.Method != "POST" {
		return Request{}, fmt.Errorf("httpkit: unsupported method %q", r.Method)
	}
	if !strings.HasPrefix(fields[2], "HTTP/1.") {
		return Request{}, fmt.Errorf("httpkit: unsupported protocol %q", fields[2])
	}
	r.Path, r.Query, _ = strings.Cut(fields[1], "?")
	keepAlive, contentLen, err := referenceReadHeaders(br)
	if err != nil {
		return Request{}, err
	}
	r.KeepAlive = keepAlive
	body, err := referenceReadBody(br, contentLen)
	if err != nil {
		return Request{}, err
	}
	if r.Method == "POST" {
		r.Body = body
	}
	return r, nil
}

func referenceReadLine(br *bufio.Reader) (string, error) {
	var sb strings.Builder
	for {
		frag, err := br.ReadSlice('\n')
		sb.Write(frag)
		if sb.Len() > MaxLineBytes {
			return "", fmt.Errorf("httpkit: line exceeds %d bytes", MaxLineBytes)
		}
		if err == nil {
			return sb.String(), nil
		}
		if err != bufio.ErrBufferFull {
			return "", err
		}
	}
}

func referenceReadHeaders(br *bufio.Reader) (keepAlive bool, contentLen int, err error) {
	keepAlive = true
	sawContentLen := false
	for n := 0; ; n++ {
		if n >= MaxHeaderLines {
			return false, 0, fmt.Errorf("httpkit: more than %d header lines", MaxHeaderLines)
		}
		h, err := referenceReadLine(br)
		if err != nil {
			return false, 0, err
		}
		h = strings.TrimSpace(h)
		if h == "" {
			return keepAlive, contentLen, nil
		}
		k, v, ok := strings.Cut(h, ":")
		if !ok {
			continue
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		switch {
		case strings.EqualFold(k, "Connection"):
			if strings.EqualFold(v, "close") {
				keepAlive = false
			}
		case strings.EqualFold(k, "Content-Length"):
			cl, err := strconv.Atoi(v)
			if err != nil || cl < 0 {
				return false, 0, fmt.Errorf("httpkit: bad content length %q", v)
			}
			if cl > MaxBodyBytes {
				return false, 0, fmt.Errorf("httpkit: content length %d exceeds limit", cl)
			}
			if sawContentLen && cl != contentLen {
				return false, 0, fmt.Errorf("httpkit: conflicting content lengths %d and %d", contentLen, cl)
			}
			sawContentLen = true
			contentLen = cl
		}
	}
}

func referenceReadBody(br *bufio.Reader, contentLen int) ([]byte, error) {
	if contentLen <= 0 {
		return nil, nil
	}
	body := make([]byte, contentLen)
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, err
	}
	return body, nil
}

// FuzzReadRequestMatchesReference drains a stream of up to eight
// requests with ReadRequest (into one reused Request) and with the
// reference parser, at the pooled reader's 4 KB buffer and at bufio's
// 16-byte minimum, which sends most lines down the long-line path. Both
// must accept and reject at the same request, read the same method,
// path, query, keep-alive flag and body, and leave the same bytes
// unread.
//
// Seed corpus: testdata/fuzz/FuzzReadRequestMatchesReference. Run
// `go test -fuzz=FuzzReadRequestMatchesReference ./internal/servers/httpkit/`
// to explore beyond it.
func FuzzReadRequestMatchesReference(f *testing.F) {
	for _, s := range []string{
		"GET /dir0/class0_1.html HTTP/1.1\r\nHost: t\r\n\r\n",
		"GET /adrotate?u=3&r=9 HTTP/1.1\r\nConnection: close\r\n\r\n",
		"POST /post HTTP/1.1\r\nContent-Length: 5\r\n\r\nab=cdGET /a HTTP/1.0\r\n\r\n",
		"GET /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyzGET /b?q HTTP/1.1\r\n\r\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, size := range []int{16, 4096} {
			got := bufio.NewReaderSize(bytes.NewReader(data), size)
			want := bufio.NewReaderSize(bytes.NewReader(data), size)
			var r Request
			for i := 0; i < 8; i++ {
				err := ReadRequest(got, &r)
				ref, refErr := referenceReadRequest(want)
				if (err == nil) != (refErr == nil) {
					t.Fatalf("size %d request %d: ReadRequest err = %v, reference err = %v", size, i, err, refErr)
				}
				if err != nil {
					break
				}
				if r.Method != ref.Method || r.Path != ref.Path || r.Query != ref.Query ||
					r.KeepAlive != ref.KeepAlive || !bytes.Equal(r.Body, ref.Body) {
					t.Fatalf("size %d request %d: read %q %q %q keep-alive %v body %q, reference %q %q %q keep-alive %v body %q",
						size, i, r.Method, r.Path, r.Query, r.KeepAlive, r.Body,
						ref.Method, ref.Path, ref.Query, ref.KeepAlive, ref.Body)
				}
			}
			rest, _ := io.ReadAll(got)
			refRest, _ := io.ReadAll(want)
			if !bytes.Equal(rest, refRest) {
				t.Fatalf("size %d: %d bytes left unread, reference left %d", size, len(rest), len(refRest))
			}
		}
	})
}
