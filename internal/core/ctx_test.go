package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/spec"
)

func TestRequestCtxExpiredAbortsBeforeMutation(t *testing.T) {
	repo := concRepo(t)
	hook := &recordingHook{}
	cm, err := NewSharded(repo, Config{Alpha: 0.75, Commit: hook})
	if err != nil {
		t.Fatal(err)
	}
	pool := specPool(repo, 10, 1)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cm.RequestCtx(ctx, pool[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("RequestCtx(cancelled) = %v, want context.Canceled", err)
	}
	if got := cm.Stats().Requests; got != 0 {
		t.Fatalf("cancelled request mutated stats: Requests=%d", got)
	}
	if len(hook.muts) != 0 {
		t.Fatalf("cancelled request committed %d mutations", len(hook.muts))
	}

	// A live context behaves exactly like Request.
	res, err := cm.RequestCtx(context.Background(), pool[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Op != OpInsert && res.Op != OpMerge {
		t.Fatalf("first request op = %v, want insert/merge", res.Op)
	}
	if len(hook.muts) == 0 {
		t.Fatal("live request committed no mutations")
	}
}

func TestPeekHitMutatesNothing(t *testing.T) {
	repo := concRepo(t)
	hook := &recordingHook{}
	cm, err := NewSharded(repo, Config{Alpha: 0.75, Commit: hook})
	if err != nil {
		t.Fatal(err)
	}
	pool := specPool(repo, 5, 2)

	// Empty cache: nothing to peek.
	if _, ok := cm.PeekHit(pool[0]); ok {
		t.Fatal("PeekHit on empty cache reported a hit")
	}

	ins, err := cm.Request(pool[0])
	if err != nil {
		t.Fatal(err)
	}
	statsBefore := cm.Stats()
	mutsBefore := len(hook.muts)
	writeAcqs := cm.WriteLockAcquisitions()

	res, ok := cm.PeekHit(pool[0])
	if !ok {
		t.Fatal("PeekHit missed a spec the cache covers")
	}
	if res.Op != OpHit || res.ImageID != ins.ImageID {
		t.Fatalf("PeekHit = %+v, want hit on image %d", res, ins.ImageID)
	}
	if res.Seq != 0 {
		t.Fatalf("PeekHit Seq = %d, want 0 (never linearized)", res.Seq)
	}

	if got := cm.Stats(); got != statsBefore {
		t.Fatalf("PeekHit mutated stats: %+v -> %+v", statsBefore, got)
	}
	if len(hook.muts) != mutsBefore {
		t.Fatalf("PeekHit committed %d mutations", len(hook.muts)-mutsBefore)
	}
	if got := cm.WriteLockAcquisitions(); got != writeAcqs {
		t.Fatal("PeekHit took the write lock")
	}

	// And the LRU stamp is untouched: a real Request after the peek
	// still sees the image at its pre-peek lastUse (the peek did not
	// refresh it), which we observe via the mutation the hit commits.
	hit, err := cm.Request(pool[0])
	if err != nil {
		t.Fatal(err)
	}
	if hit.Op != OpHit || hit.Seq != ins.Seq+1 {
		t.Fatalf("post-peek request = %+v, want hit at seq %d", hit, ins.Seq+1)
	}

	var empty spec.Spec
	if _, ok := cm.PeekHit(empty); ok {
		t.Fatal("PeekHit(empty spec) reported a hit")
	}
}
