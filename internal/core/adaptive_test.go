package core

import (
	"testing"
	"time"

	"pioman/internal/nic"
	"pioman/internal/ptime"
	"pioman/internal/sched"
)

// withAdaptive enables the future-work adaptive offload policy.
func withAdaptive() clusterOpt {
	return func(p *clusterParams) { p.adaptive = true }
}

// virtualCPU switches the test to virtual-time CPU charging, under which
// "who paid the submission" is exact: ptime.Charged() is the model cost
// billed to the calling goroutine, whatever the host scheduler did to it
// meanwhile. A stopwatch around Isend cannot tell a deferred submission
// from a descheduled caller.
func virtualCPU(t *testing.T) {
	ptime.SetVirtual(true)
	t.Cleanup(func() { ptime.SetVirtual(false) })
}

// chargedBy returns the virtual CPU time fn bills to the calling goroutine.
func chargedBy(fn func()) time.Duration {
	before := ptime.Charged()
	fn()
	return ptime.Charged() - before
}

func TestAdaptiveOffloadDefersWhenCoresIdle(t *testing.T) {
	virtualCPU(t)
	slow := fastRail()
	slow.Cost.CopyBytesPerUS = 10 // 16K -> 1.6ms of copy
	c := newCluster(t, 2, withAdaptive(), withCores(4),
		withRails(func(int) []nic.Params { return []nic.Params{slow} }))
	data := payload(16<<10, 2)
	done := make(chan struct{})
	go c.run(1, func(th *sched.Thread) {
		buf := make([]byte, 16<<10)
		r := c.Nodes[1].Eng.Irecv(0, 1, buf)
		c.Nodes[1].Eng.WaitRecv(r, th)
		close(done)
	})
	c.run(0, func(th *sched.Thread) {
		// Three idle cores: the adaptive policy must defer, so Isend
		// only registers the send and pays none of the 1.6ms copy.
		var s *SendReq
		if paid := chargedBy(func() { s = c.Nodes[0].Eng.Isend(1, 1, data) }); paid != 0 {
			t.Errorf("adaptive Isend with idle cores paid %v of submission cost, want deferral", paid)
		}
		c.Nodes[0].Eng.WaitSend(s, th)
	})
	<-done
}

func TestAdaptiveOffloadSubmitsInlineWhenSaturated(t *testing.T) {
	slow := fastRail()
	slow.Cost.CopyBytesPerUS = 10 // 16K -> 1.6ms of copy
	c := newCluster(t, 2, withAdaptive(), withCores(1),
		withRails(func(int) []nic.Params { return []nic.Params{slow} }))
	data := payload(16<<10, 2)
	c.run(0, func(th *sched.Thread) {
		// The only core is this thread: the adaptive policy must submit
		// inline, paying the full copy cost in Isend.
		start := time.Now()
		s := c.Nodes[0].Eng.Isend(1, 1, data)
		if el := time.Since(start); el < 1500*time.Microsecond {
			t.Errorf("adaptive Isend with no idle core returned in %v, want inline copy", el)
		}
		if !s.Completed() {
			t.Error("inline-submitted send incomplete")
		}
	})
}
