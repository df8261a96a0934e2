// Package bothpolicies runs under secretflow and sidechannel together: one
// taint run serves both policies, so a helper parameter that reaches a
// disclosure sink and a trace sink must carry both facts to its call sites
// whichever sink it meets first, and neither policy's directive excuses the
// other policy's finding.
package bothpolicies

import "fmt"

// Key carries secret material in Raw.
type Key struct {
	Raw []byte //yosolint:secret raw key bytes reconstruct the decryption key
}

// reject formats its argument into an error, then branches on it.
func reject(b byte) error {
	err := fmt.Errorf("rejected byte %d", b)
	if b == 0 {
		return nil
	}
	return err
}

// flag branches on its argument, then formats it into an error.
func flag(b byte) error {
	if b == 0 {
		return nil
	}
	return fmt.Errorf("flagged byte %d", b)
}

func Both(k Key) error {
	if err := reject(k.Raw[0]); err != nil { // want `secret value k\.Raw\[0\] is formatted into an error inside .*reject` `secret value k\.Raw\[0\] decides a branch inside .*reject`
		return err
	}
	return flag(k.Raw[1]) // want `secret value k\.Raw\[1\] is formatted into an error inside .*flag` `secret value k\.Raw\[1\] decides a branch inside .*flag`
}

func Crossed(k Key) error {
	if k.Raw[2] == 1 { //yosolint:declassify fixture: declassify is secretflow's and excuses no branch // want `secret-dependent branch on k\.Raw\[2\] == 1`
		return nil
	}
	return fmt.Errorf("raw %v", k.Raw) //yosolint:vartime fixture: vartime is sidechannel's and excuses no disclosure // want `secret value k\.Raw is formatted into an error by fmt\.Errorf`
}
