package main

import (
	"bufio"
	"strings"
	"testing"
)

// TestClientAllocFree pins the load generator at zero allocations per
// request against an allocation-free responder.
func TestClientAllocFree(t *testing.T) {
	const n = 3000
	allocs, err := clientAllocs(genServeInputs(1), n)
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("load generator allocates %.4f objects per request", allocs)
	}
}

func TestReadMessage(t *testing.T) {
	for _, tc := range []struct {
		msg    string
		status int
		body   string
		err    bool
	}{
		{"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}", 200, "{}", false},
		{"HTTP/1.1 204 No Content\r\nDate: x\r\n\r\n", 204, "", false},
		{"HTTP/1.1 404 Not Found\r\ncontent-length: 3\r\n\r\nabc", 404, "abc", false},
		{"POST /v1/decide HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody", 0, "body", false},
		{"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n", 0, "", true},
		{"HTTP/1.1 2x0 OK\r\n\r\n", 0, "", true},
		{"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort", 0, "", true},
	} {
		var buf []byte
		status, body, err := readMessage(bufio.NewReader(strings.NewReader(tc.msg)), &buf)
		if (err != nil) != tc.err || status != tc.status || string(body) != tc.body {
			t.Errorf("%q: got %d %q %v", tc.msg, status, body, err)
		}
	}
}
