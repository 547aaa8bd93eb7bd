package core

import (
	"runtime"
	"testing"
)

// TestReleaseRightAfterCompleted recycles a request the moment its
// completion is observed — by a waiter parked on the flag, or by a poll
// of Completed — while the completing goroutine may still be inside Set.
// Under the race detector it fails if Set touches the request after the
// swap that publishes the completion, which is what lets Release recycle
// without waiting for the completer to leave.
func TestReleaseRightAfterCompleted(t *testing.T) {
	for i := 0; i < 1000; i++ {
		r := recvReqPool.Get().(*RecvReq)
		go r.req.Complete()
		if i%2 == 0 {
			r.req.Flag().Wait()
		} else {
			for !r.Completed() {
				runtime.Gosched()
			}
		}
		r.Release()
	}
}
