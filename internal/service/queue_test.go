package service

import (
	"context"
	"testing"
	"time"
)

func qjob(id string) *Job {
	return newJob(id, Request{Type: TypePredict, Predict: &PredictRequest{
		Machine: "Yona", Kind: "bulk", Cores: 12,
	}}, context.Background(), time.Now())
}

func TestQueueBounds(t *testing.T) {
	q := NewQueue(2)
	if q.Cap() != 2 || q.Depth() != 0 {
		t.Fatalf("fresh queue cap=%d depth=%d", q.Cap(), q.Depth())
	}
	if !q.TryPush(qjob("a")) || !q.TryPush(qjob("b")) {
		t.Fatal("push into empty queue failed")
	}
	if q.TryPush(qjob("c")) {
		t.Fatal("push into full queue succeeded")
	}
	if q.Depth() != 2 {
		t.Fatalf("depth %d, want 2", q.Depth())
	}
	j := <-q.Chan()
	if j.ID() != "a" {
		t.Fatalf("FIFO violated: got %s", j.ID())
	}
	if !q.TryPush(qjob("c")) {
		t.Fatal("push after pop failed")
	}
}

func TestQueueCloseDrains(t *testing.T) {
	q := NewQueue(4)
	q.TryPush(qjob("a"))
	q.TryPush(qjob("b"))
	q.Close()
	if q.TryPush(qjob("c")) {
		t.Fatal("push into closed queue succeeded")
	}
	q.Close() // idempotent
	var got []string
	for j := range q.Chan() {
		got = append(got, j.ID())
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("drained %v", got)
	}
}

// TestQueueBackgroundWaitsBehindForeground pins where the idle decision
// is made: a prediction admitted while its triggering foreground job
// still sits in the lane is kept, and Pop serves it only after every
// foreground job — a worker takes speculative work only when idle.
func TestQueueBackgroundWaitsBehindForeground(t *testing.T) {
	q := NewQueue(2)
	if !q.TryPush(qjob("fg1")) {
		t.Fatal("foreground push failed")
	}
	if !q.TryPushBackground(qjob("bg")) {
		t.Fatal("background push shed while a foreground job waits")
	}
	if !q.TryPush(qjob("fg2")) {
		t.Fatal("foreground push failed")
	}
	var got []string
	for range 3 {
		j, ok := q.Pop()
		if !ok {
			t.Fatal("queue closed early")
		}
		got = append(got, j.ID())
	}
	if got[0] != "fg1" || got[1] != "fg2" || got[2] != "bg" {
		t.Fatalf("pop order %v, want foreground first", got)
	}
	if !q.TryPushBackground(qjob("b1")) || !q.TryPushBackground(qjob("b2")) || q.TryPushBackground(qjob("b3")) {
		t.Fatal("background lane must hold exactly its capacity")
	}
	q.Close()
	if q.TryPushBackground(qjob("late")) {
		t.Fatal("background push into a closed queue succeeded")
	}
}
