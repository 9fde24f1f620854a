package server_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"luf/internal/client"
	"luf/internal/server"
)

// TestFlippedFreezeFencesProvisionallyNeverThaws: a freeze window whose
// coordinator reports "flipped" is past the decision point — when the
// TTL lapses the source must not presume abort and reopen the write
// path (acked unions on the new owner would silently diverge from a
// stale writer's view). Instead the probe's flip material installs a
// provisional moved-fence: class writes go 503 → 403 with the
// new-owner hint, never back to accepted. The redriven complete must
// then still journal the durable marker (the provisional fence does
// not count as installed), so the fence survives a source restart.
func TestFlippedFreezeFencesProvisionallyNeverThaws(t *testing.T) {
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != server.MigrateStatusPath {
			http.NotFound(w, r)
			return
		}
		writeJSONTest(t, w, server.MigrationStatusResponse{
			Migration: 7, State: "flipped", Epoch: 1,
			To: "beta", MapEpoch: 3, Nodes: []string{"a", "b", "c"},
		})
	}))
	defer coord.Close()

	dir := t.TempDir()
	s, _, c := newTestServer(t, server.Config{Dir: dir})
	c.MaxRetries = 0
	ctx := context.Background()

	if _, err := c.Assert(ctx, "a", "b", 1, "seed"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Assert(ctx, "a", "c", 2, "seed"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MigrateFreeze(ctx, server.MigrateFreezeRequest{
		Migration: 7, Epoch: 1, Coordinator: coord.URL, Class: "a", TTLMillis: 40,
	}); err != nil {
		t.Fatal(err)
	}

	// Class writes stall 503 while frozen, then 403 once the probe sees
	// the flip — at no point is one accepted.
	var ae *client.APIError
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := c.Assert(ctx, "a", "d", 5, "stale write")
		if err == nil {
			t.Fatal("class write accepted during a flipped migration — lost to the new owner")
		}
		if !errors.As(err, &ae) {
			t.Fatalf("class write = %v, want APIError", err)
		}
		if ae.Status == http.StatusForbidden {
			break
		}
		if ae.Status != http.StatusServiceUnavailable {
			t.Fatalf("class write status %d, want 503 while frozen or 403 once flipped", ae.Status)
		}
		if time.Now().After(deadline) {
			t.Fatal("freeze never upgraded to the provisional moved-fence")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if d := ae.Detail(); d.NewOwner != "beta" || d.MapEpoch != 3 {
		t.Fatalf("provisional fence detail = %+v, want new owner beta at map epoch 3", d)
	}
	// The fence thawed the window: unrelated classes write freely.
	if _, err := c.Assert(ctx, "x", "y", 1, "unrelated"); err != nil {
		t.Fatalf("unrelated write behind the provisional fence: %v", err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Migration == nil || st.Migration.Frozen != 0 || st.Migration.Migrated == 0 {
		t.Fatalf("migration stats = %+v, want zero frozen windows and fenced nodes", st.Migration)
	}

	// The redriven complete lands: despite the provisional fence already
	// covering every node at this map epoch, the marker must hit the
	// journal — Durable reports it did.
	cr, err := c.MigrateComplete(ctx, server.MigrateCompleteRequest{
		Migration: 7, Epoch: 1, MapEpoch: 3, To: "beta", Nodes: []string{"a", "b", "c"},
	})
	if err != nil || !cr.OK || !cr.Durable {
		t.Fatalf("redriven complete = (%+v, %v), want a journaled marker", cr, err)
	}

	// And because it did, a restarted source still refuses stale writers.
	s.Kill()
	s2, _, err := server.New(server.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	c2 := client.New(ts2.URL)
	c2.MaxRetries = 0
	_, werr := c2.Assert(ctx, "a", "e", 9, "stale write after restart")
	if !errors.As(werr, &ae) || ae.Status != http.StatusForbidden || ae.Detail().NewOwner != "beta" {
		t.Fatalf("stale write after source restart = %v, want 403 with the new-owner hint", werr)
	}
}

// TestFreezeAndPrepareWindowsExcludeEachOther: a migration freeze and a
// 2PC prepare reservation over one class must never coexist — a
// committed bridge edge applied after the class flips away would be
// permanently fenced. Both sides install first and re-check second, so
// whichever window arrives second backs out with a retryable 503.
func TestFreezeAndPrepareWindowsExcludeEachOther(t *testing.T) {
	_, _, c := newTestServer(t, server.Config{Dir: t.TempDir()})
	c.MaxRetries = 0
	ctx := context.Background()

	if _, err := c.Assert(ctx, "a", "b", 1, "seed"); err != nil {
		t.Fatal(err)
	}

	// Prepare first: a freeze over the reserved class is refused and
	// holds nothing.
	if _, err := c.Prepare(ctx, server.PrepareRequest{
		Intent: 1, Epoch: 1, N: "b", M: "remote", Label: 5, TTLMillis: 60_000,
	}); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	_, err := c.MigrateFreeze(ctx, server.MigrateFreezeRequest{
		Migration: 3, Epoch: 1, Class: "a", TTLMillis: 60_000,
	})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("freeze during the prepare window = %v, want retryable 503", err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Migration != nil && st.Migration.Frozen != 0 {
		t.Fatalf("refused freeze left a window held: %+v", st.Migration)
	}
	// The reservation still clears normally via its tagged bridge assert.
	if _, err := c.Assert(ctx, "b", "remote", 5, server.FormatIntentTag(1, 1)); err != nil {
		t.Fatalf("bridge assert after refused freeze: %v", err)
	}

	// Freeze first: a prepare over the frozen class is refused and holds
	// nothing.
	if _, err := c.MigrateFreeze(ctx, server.MigrateFreezeRequest{
		Migration: 4, Epoch: 2, Class: "a", TTLMillis: 60_000,
	}); err != nil {
		t.Fatalf("freeze: %v", err)
	}
	_, err = c.Prepare(ctx, server.PrepareRequest{
		Intent: 2, Epoch: 1, N: "fresh", M: "a", Label: 7, TTLMillis: 60_000,
	})
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("prepare during the freeze window = %v, want retryable 503", err)
	}
	if st, err = c.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if st.TwoPhase == nil || st.TwoPhase.Reserved != 0 {
		t.Fatalf("refused prepare left a reservation held: %+v", st.TwoPhase)
	}
	// Thawing the freeze reopens the prepare path.
	if _, err := c.MigrateRelease(ctx, server.MigrateReleaseRequest{Migration: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Prepare(ctx, server.PrepareRequest{
		Intent: 3, Epoch: 1, N: "fresh", M: "a", Label: 7, TTLMillis: 60_000,
	}); err != nil {
		t.Fatalf("prepare after thaw: %v", err)
	}
}

// TestMigrateSliceSpansStorePages pages a class's journal slice out of
// a store whose assertion list spans several of the handler's read
// pages, with the class's entries interleaved with another class's.
// The windows must tile exactly the class's entries in journal order,
// each reporting the slice's full total and member list.
func TestMigrateSliceSpansStorePages(t *testing.T) {
	s, _, c := newTestServer(t, server.Config{Dir: t.TempDir()})
	ctx := context.Background()
	var batch []server.AssertRequest
	for i := 1; i <= 300; i++ {
		for _, cls := range []string{"c", "o"} {
			batch = append(batch, server.AssertRequest{
				N: cls + strconv.Itoa(i-1), M: cls + strconv.Itoa(i), Label: int64(i), Reason: cls + "-chain",
			})
		}
	}
	for len(batch) > 0 {
		n := min(len(batch), 100)
		resp, err := c.BatchAssert(ctx, batch[:n])
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range resp.Results {
			if !it.OK {
				t.Fatalf("batch item %d failed: %+v", i, it)
			}
		}
		batch = batch[n:]
	}
	var want []server.AssertRequest
	for _, e := range s.Store().Entries() {
		if strings.HasPrefix(e.N, "c") {
			want = append(want, server.AssertRequest{N: e.N, M: e.M, Label: e.Label, Reason: e.Reason})
		}
	}
	if len(want) != 300 || s.Store().Len() != 600 {
		t.Fatalf("store holds %d entries, %d in class c; want 600 and 300", s.Store().Len(), len(want))
	}
	var got []server.AssertRequest
	for after := 0; after < len(want); after += 70 {
		page, err := c.MigrateSlice(ctx, "c0", after, 70)
		if err != nil {
			t.Fatal(err)
		}
		if page.Total != len(want) || len(page.Nodes) != 301 || page.Nodes[0] != "c0" {
			t.Fatalf("window after %d: total %d, %d nodes led by %q; want 300, 301, c0", after, page.Total, len(page.Nodes), page.Nodes[0])
		}
		if page.CRC != server.SliceChecksum(page.Entries) {
			t.Fatalf("window after %d: checksum mismatch", after)
		}
		got = append(got, page.Entries...)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("slice windows tile %d entries that differ from the class's %d journal entries", len(got), len(want))
	}
}
