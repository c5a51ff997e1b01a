package fabric

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// fuzzCoordinator builds a small coordinator and walks it into an
// interesting state before the hostile request lands: chunk 0 is done
// (lease l1 spent — a replayable token), chunk 1 is live under lease
// l2, everything else is pending.
func fuzzCoordinator(t *testing.T) (*Coordinator, http.Handler) {
	t.Helper()
	job := quickJob()
	job.SampleInterval = 0
	c, err := NewCoordinator(CoordinatorConfig{Job: job})
	if err != nil {
		t.Fatal(err)
	}
	h := c.Handler()
	l1 := decodeLease(t, request(t, h, http.MethodPost, "/lease", `{"worker":"w1"}`))
	if l1.Status != statusLease || l1.Lease != "l1" {
		t.Fatalf("prelude lease: %+v", l1)
	}
	if rec := request(t, h, http.MethodPost, hbPath("l1", 10000), "ckpt"); rec.Code != http.StatusOK {
		t.Fatalf("prelude heartbeat: %d %s", rec.Code, rec.Body)
	}
	if rec := request(t, h, http.MethodPost, "/complete", completion(job, l1, "{}")); rec.Code != http.StatusOK {
		t.Fatalf("prelude complete: %d %s", rec.Code, rec.Body)
	}
	l2 := decodeLease(t, request(t, h, http.MethodPost, "/lease", `{"worker":"w2"}`))
	if l2.Status != statusLease || l2.Lease != "l2" {
		t.Fatalf("prelude second lease: %+v", l2)
	}
	return c, h
}

// FuzzFabricRequest throws arbitrary bodies at every coordinator
// endpoint — oversized, truncated, wrong-typed, and replayed/duplicate
// lease completions included — and an arbitrary query at /heartbeat,
// whose lease and cycle ride there. The contract under fire: error cleanly
// (never panic), hold every queue invariant, and never let a hostile
// request cause a chunk to be double-assigned or a done chunk to be
// reassigned. The committed corpus under testdata/fuzz replays in CI
// via the ordinary test runner.
func FuzzFabricRequest(f *testing.F) {
	// Endpoint selector 0..7; see the table in the fuzz body.
	f.Add(byte(0), "", []byte(`{"worker":"w-fuzz"}`))
	f.Add(byte(0), "", []byte(``))
	f.Add(byte(1), "lease=l2&cycle=20000", []byte("abc")) // valid renewal
	f.Add(byte(1), "lease=l1&cycle=20000", []byte{})      // late heartbeat, dead lease
	f.Add(byte(1), "lease=l2&cycle=-7", []byte{})
	f.Add(byte(1), "lease=l2&cycle=many", []byte{})                                // wrong-typed field
	f.Add(byte(1), "", bytes.Repeat([]byte("A"), 1<<20))                           // oversized garbage
	f.Add(byte(1), "lease=l2&cycle=20000", bytes.Repeat([]byte("A"), 1<<20))       // ... under a live lease
	f.Add(byte(1), "lease=l2&lease=l1&cycle=1&cycle=2", []byte("abc"))             // repeated keys
	f.Add(byte(1), "lease=l2;cycle=1&%zz", []byte("abc"))                          // malformed query
	f.Add(byte(1), "", []byte(`{"lease":"l2","cycle":20000,"checkpoint":"YWJj"}`)) // the retired JSON form
	f.Add(byte(2), "", []byte(`{"lease":"l1","result":"e30="}`))                   // replayed duplicate completion
	f.Add(byte(2), "", []byte(`{"lease":"l2","result":"e30="}`))                   // legitimate completion
	f.Add(byte(2), "", []byte(`{"lease":"l2","result":"!!!"}`))                    // result not base64
	f.Add(byte(2), "", []byte(`{"lease":"l2","res`))                               // truncated mid-body
	f.Add(byte(2), "", []byte(`{"lease":"l2","result":"e30="} trailing`))
	f.Add(byte(2), "", []byte(`{"lease":"l2","result":"WyJub3QiLCJhIiwicmVzdWx0Il0="}`)) // result decodes but isn't a sim.Result
	f.Add(byte(3), "", []byte("not-a-hash"))
	f.Add(byte(4), "", []byte{})
	f.Add(byte(5), "", []byte{0xff, 0xfe})
	f.Add(byte(6), "", []byte(`{}`))
	f.Add(byte(7), "", []byte(`GET me`))
	// Completions that carry an artifact set (l2 holds the second solo
	// baseline); the result-field bodies above predate the set and now
	// replay as clean 400s.
	const l2Result = "arena_solo_art_x2_ch1.result.json"
	f.Add(byte(2), "", []byte(`{"lease":"l2","artifacts":[{"name":"`+l2Result+`","data":"e30="}]}`)) // legitimate completion
	f.Add(byte(2), "", []byte(`{"lease":"l1","artifacts":[{"name":"`+l2Result+`","data":"e30="}]}`)) // replayed on a spent lease
	f.Add(byte(2), "", []byte(`{"lease":"l2","artifacts":[{"name":"../`+l2Result+`","data":"e30="}]}`))
	f.Add(byte(2), "", []byte(`{"lease":"l2","artifacts":[{"name":"a/b","data":"e30="}]}`))
	f.Add(byte(2), "", []byte(`{"lease":"l2","artifacts":[{"name":"`+l2Result+`","data":"e30="},{"name":"`+l2Result+`","data":"e30="}]}`))
	f.Add(byte(2), "", []byte(`{"lease":"l2","artifacts":[]}`))
	f.Add(byte(2), "", []byte(`{"lease":"l2","artifacts":[{"name":"`+l2Result+`","data":"WyJub3QiLCJhIiwicmVzdWx0Il0="}]}`)) // named right, not a sim.Result
	f.Add(byte(2), "", []byte(`{"lease":"l2","artifacts":{"name":7}}`))

	f.Fuzz(func(t *testing.T, ep byte, query string, body []byte) {
		c, h := fuzzCoordinator(t)

		switch ep % 8 {
		case 0:
			request(t, h, http.MethodPost, "/lease", string(body))
		case 1:
			// The query is set raw, not parsed from a target: a fuzzed
			// one need not be a legal request line.
			req := httptest.NewRequest(http.MethodPost, "/heartbeat", bytes.NewReader(body))
			req.URL.RawQuery = query
			h.ServeHTTP(httptest.NewRecorder(), req)
		case 2:
			request(t, h, http.MethodPost, "/complete", string(body))
		case 3:
			// Hash paths come from the body but must stay URL-safe.
			n := len(body)
			if n > 8 {
				n = 8
			}
			request(t, h, http.MethodGet, fmt.Sprintf("/blob/%x", body[:n]), "")
		case 4:
			request(t, h, http.MethodGet, "/progress", "")
		case 5:
			request(t, h, http.MethodGet, "/status", "")
		case 6:
			request(t, h, http.MethodGet, "/job", "")
		case 7:
			request(t, h, http.MethodGet, "/", string(body))
		}

		if err := c.checkInvariants(); err != nil {
			t.Fatalf("invariants violated by %q (query %q) on endpoint %d: %v", body, query, ep%8, err)
		}

		// Drain the queue: whatever the hostile request did, no chunk
		// may be handed out twice and chunk 0 (done since the prelude)
		// may never be reassigned.
		doneBefore := make(map[int]bool)
		for _, ch := range c.Status().Chunks {
			if ch.State == "done" {
				doneBefore[ch.Chunk] = true
			}
		}
		granted := make(map[int]bool)
		for i := 0; i < len(c.chunks)+2; i++ {
			lr := decodeLease(t, request(t, h, http.MethodPost, "/lease", `{"worker":"drain"}`))
			if lr.Status != statusLease {
				break
			}
			if granted[lr.Chunk] {
				t.Fatalf("chunk %d double-assigned during drain", lr.Chunk)
			}
			if doneBefore[lr.Chunk] {
				t.Fatalf("done chunk %d was reassigned", lr.Chunk)
			}
			granted[lr.Chunk] = true
		}
		if err := c.checkInvariants(); err != nil {
			t.Fatalf("invariants violated after drain: %v", err)
		}
	})
}

// zeros is an endless body of zero octets.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestOversizedBodyRejected pins the request-body cap: a heartbeat whose
// body is one octet past maxRequestBody — declared in Content-Length or
// not — errors as a clean 400 that stores nothing and leaves the lease
// live; it does not balloon memory or panic.
func TestOversizedBodyRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("reads a 64MiB request body")
	}
	c, h := fuzzCoordinator(t)
	for _, declared := range []bool{true, false} {
		req := httptest.NewRequest(http.MethodPost, hbPath("l2", 20_000), io.LimitReader(zeros{}, maxRequestBody+1))
		if declared {
			req.ContentLength = maxRequestBody + 1
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("oversized heartbeat (declared=%v): code %d, want 400", declared, rec.Code)
		}
		if err := c.checkInvariants(); err != nil {
			t.Fatal(err)
		}
		if ch := c.chunks[1]; ch.ckpt != nil || ch.ckptCycle != 0 {
			t.Fatalf("oversized heartbeat (declared=%v) stored a %d-byte checkpoint", declared, len(ch.ckpt))
		}
	}
	if rec := request(t, h, http.MethodPost, hbPath("l2", 20_000), "fits"); rec.Code != http.StatusOK {
		t.Fatalf("lease after oversized heartbeats: code %d, want it still live", rec.Code)
	}
}
