// Package roleonce is a roleonce fixture: state-bearing uses of a role
// after its Spoke token (or of a committee after SpeakAll) violate the
// YOSO speak-once discipline and must be flagged.
package roleonce

import (
	"yosompc/internal/comm"
	"yosompc/internal/yoso"
)

// Bad keeps acting through a role that already spoke.
func Bad(r *yoso.Role) {
	r.Post(comm.PhaseOnline, comm.CatInput, []byte("p"))
	r.Spoke()
	r.Post(comm.PhaseOnline, comm.CatInput, []byte("l")) // want `r\.Post called after the role spoke`
	_ = r.SecretKey()                                    // want `r\.SecretKey called after the role spoke`
	r.Spoke()                                            // want `r\.Spoke called after the role spoke`
}

// BadCommittee double-kills a committee.
func BadCommittee(c *yoso.Committee) {
	c.SpeakAll()
	c.SpeakAll() // want `c\.SpeakAll called after the committee spoke`
}

// Good reads only public, erased-state-free accessors after death.
func Good(r *yoso.Role) {
	r.Post(comm.PhaseOnline, comm.CatInput, []byte("p"))
	r.Spoke()
	_ = r.HasSpoken()
	_ = r.Name()
	_ = r.PublicKey()
}

// Fresh roles are unconstrained: no kill, no findings.
func Fresh(r *yoso.Role) {
	_ = r.SecretKey()
	r.Post(comm.PhaseOnline, comm.CatInput, []byte("p"))
}
