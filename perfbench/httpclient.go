package main

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"time"
)

// httpClient is serve-http's load generator: one keep-alive HTTP/1.1
// connection over which it writes prebuilt request bytes and parses the
// response in place. After the first few requests it allocates nothing
// per request (TestClientAllocFree and the run's own self-check pin
// this), so the generator's garbage never lands in the server's tail
// latency.
type httpClient struct {
	conn net.Conn
	br   *bufio.Reader
	body []byte
}

func dialHTTP(addr string) (*httpClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &httpClient{conn: conn, br: bufio.NewReaderSize(conn, 4096), body: make([]byte, 0, 1024)}, nil
}

// do writes one request and reads its response. The body aliases the
// client's buffer until the next call.
func (c *httpClient) do(req []byte) (status int, body []byte, err error) {
	if _, err := c.conn.Write(req); err != nil {
		return 0, nil, err
	}
	return readMessage(c.br, &c.body)
}

func (c *httpClient) close() error { return c.conn.Close() }

var (
	errStartLine = errors.New("malformed HTTP start line")
	errLength    = errors.New("HTTP message without Content-Length")
	errTooLarge  = errors.New("HTTP body over 1 MiB")
)

// readMessage reads one HTTP/1.1 message framed by Content-Length and
// returns its body in *buf. For a response it returns the status code;
// for a request (start line not "HTTP/1.1 ...") it returns 0. A
// response without Content-Length is accepted only for statuses that
// never carry a body.
func readMessage(br *bufio.Reader, buf *[]byte) (int, []byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	status := 0
	if bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		if len(line) < 12 {
			return 0, nil, errStartLine
		}
		for _, c := range line[9:12] {
			if c < '0' || c > '9' {
				return 0, nil, errStartLine
			}
			status = status*10 + int(c-'0')
		}
	}
	n := -1
	for {
		line, err = br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		if v, ok := contentLength(line); ok {
			n = v
		}
	}
	if n < 0 {
		if status >= 200 && status != 204 && status != 304 {
			return 0, nil, errLength
		}
		n = 0
	}
	if n > 1<<20 {
		return 0, nil, errTooLarge
	}
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err := io.ReadFull(br, b); err != nil {
		return 0, nil, err
	}
	return status, b, nil
}

// contentLength parses a "Content-Length: N" header line (name case
// insensitive).
func contentLength(line []byte) (int, bool) {
	const name = "content-length:"
	if len(line) < len(name) {
		return 0, false
	}
	for i := 0; i < len(name); i++ {
		c := line[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != name[i] {
			return 0, false
		}
	}
	v, digits := 0, 0
	for _, c := range line[len(name):] {
		switch {
		case c >= '0' && c <= '9':
			v = v*10 + int(c-'0')
			digits++
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
		default:
			return 0, false
		}
	}
	return v, digits > 0
}

// cannedServer answers every request on every connection ln accepts
// with resp, allocation-free per request. It checks the load generator
// in isolation from net/http.
type cannedServer struct {
	ln   net.Listener
	resp []byte
	done chan struct{}
}

func startCanned(resp []byte) (*cannedServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &cannedServer{ln: ln, resp: resp, done: make(chan struct{})}
	go s.serve()
	return s, nil
}

// serve handles one connection at a time until the listener closes.
func (s *cannedServer) serve() {
	defer close(s.done)
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		br := bufio.NewReaderSize(conn, 4096)
		buf := make([]byte, 0, 1024)
		for {
			if _, _, err := readMessage(br, &buf); err != nil {
				break
			}
			if _, err := conn.Write(s.resp); err != nil {
				break
			}
		}
		conn.Close()
	}
}

// close stops the server once its current connection has ended (the
// caller closes its client first) and waits for it.
func (s *cannedServer) close() {
	s.ln.Close()
	<-s.done
}
