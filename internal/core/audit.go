package core

import (
	"fmt"
	"sync"

	"yosompc/internal/comm"
)

// KeyClass names a key family in the paper's Figure 1 key-usage flow.
type KeyClass string

// Key classes.
const (
	KeyTPK    KeyClass = "tpk"      // threshold public key / tsk shares
	KeyKFF    KeyClass = "kff"      // keys-for-future
	KeyRole   KeyClass = "role-key" // YOSO role-assignment keys
	KeyClient KeyClass = "client"   // client long-term keys
)

// ValueClass names a protocol secret category.
type ValueClass string

// Value classes.
const (
	ValKFFSecret   ValueClass = "kff-secret-key"
	ValTskShare    ValueClass = "tsk-share"
	ValWireLambda  ValueClass = "wire-lambda"
	ValPackedShare ValueClass = "packed-share"
	ValProductOpen ValueClass = "product-opening"
	ValOutput      ValueClass = "output-lambda"
)

// AuditEvent records one decryption: which value class was opened under
// which key class during which phase. Tests assert the trace matches the
// paper's Figure 1 (e.g. packed shares are only ever opened under KFF keys,
// KFF secrets only under role keys re-encrypted by the first online
// committee).
type AuditEvent struct {
	Phase comm.Phase
	Value ValueClass
	Key   KeyClass
}

// String implements fmt.Stringer.
func (e AuditEvent) String() string {
	return fmt.Sprintf("%s: %s under %s", e.Phase, e.Value, e.Key)
}

// Auditor collects audit events. The zero value is ready to use and safe
// for concurrent use.
type Auditor struct {
	mu     sync.Mutex
	events []AuditEvent
}

// Record appends an event.
func (a *Auditor) Record(phase comm.Phase, val ValueClass, key KeyClass) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.events = append(a.events, AuditEvent{Phase: phase, Value: val, Key: key})
}

// Events returns a snapshot of the trace.
func (a *Auditor) Events() []AuditEvent {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]AuditEvent, len(a.events))
	copy(out, a.events)
	return out
}
