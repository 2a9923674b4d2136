//go:build go1.23

// This file holds the kernel's only use of iter.Pull, which needs Go
// 1.23. go.mod stays at go 1.22: the benchmark module in perfbench/
// pins go 1.22 and builds this module through a replace directive, and
// a higher go directive here makes that build fail with "go: updates to
// go.mod needed". The build constraint raises the language version of
// this file alone, which is what vet's stdversion check asks for.

package sim

import "iter"

// start turns body into p's coroutine. The body first runs when the
// kernel dispatches p's start event.
func (p *Proc) start(body func(*Proc)) {
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.exit()
		body(p)
	})
}
