package paillier

import (
	"fmt"
	"math/big"
	"sync"
)

// Pre-generated safe primes used by FixedTestKey. Safe-prime search is slow
// (seconds per prime), so tests and examples reuse these fixed values. They
// provide no security and must never be used outside tests/demos; production
// callers use GenerateSafeKey.
var fixedSafePrimes256 = []string{
	"d006bd49c255169d4f92bfae81a522de8540ee3ae0f5ed8cd3f2e7df5c7a1003",
	"f3451b709acc60893072b8e6ad0c66c2a471246dc28ed6c329524da1ed7ef953",
	"ffeb9a4706f48b1d26dc540ea34d6ac72f6d841cda2fbf7aae77b0ab1ad82267",
	"d002c8a7ed152176dbf20e07b6c7409c1b09666f643660ea54e06c57fa7b4817",
	"e535413c60fb13efddb642f6b0390bffb0468855a02410de227e9dcd85ba2c1f",
	"cb6f42ab27cda4bc53f747afe580d55fe2a32dcf46ee19141ca635a11622d22f",
	"e18be9a8c063c41f34c9aa11f97d91a58833384b860f1490e66a13d890ab51a7",
	"f4bd2d3b26dbb8bda32d9bb6cfb7a2c9c3b7cfddc5c646b26206c294c6ee28bf",
}

var fixedSafePrimes1024 = []string{
	"e5ad3c6f9c04d7c5b1cac6094d6d6acd768cfd24c36569b22d59480f5a995175dd64c9f97662fa0e5a82051953f9616457be79455d005ead91759bc62ef3913caa49351544b79622d53cdbf8ed858262bd33623b2a6572f23090c36669c38aec08b546aa39470ad0f979a2c8487310631ed8011ce6366442e78efb00900c3433",
	"f90ed59e24b01f3093f348d7c36fabb044c6916439dc5957f15788d4f59efd440ec2de346619c015164a411dcf103fb532fdddec1671b5bc0a745f3e620b7b70cb2469b7b7f20cbdc579ed6774f97c7dc1b9be4fd2481a4fd98617ca62f0036de73530a7adf09001c9220bc41a392b3366ae4127600547c731a19ce0d3a653cb",
}

var (
	fixedKeyMu    sync.Mutex
	fixedKeyCache = map[int]*PrivateKey{}
)

// NumFixedTestKeys is the number of distinct 512-bit fixed test keys.
const NumFixedTestKeys = 4

// FixedTestKey returns the i-th deterministic 512-bit safe-prime key
// (i in [0, NumFixedTestKeys)). FOR TESTS AND DEMOS ONLY.
func FixedTestKey(i int) *PrivateKey {
	if i < 0 || i >= NumFixedTestKeys {
		panic(fmt.Sprintf("paillier: fixed test key index %d out of range", i))
	}
	fixedKeyMu.Lock()
	defer fixedKeyMu.Unlock()
	if k, ok := fixedKeyCache[i]; ok {
		return k
	}
	p := mustHex(fixedSafePrimes256[2*i])
	q := mustHex(fixedSafePrimes256[2*i+1])
	k, err := NewKeyFromSafePrimes(p, q)
	if err != nil {
		panic(fmt.Sprintf("paillier: fixed test key %d: %v", i, err))
	}
	fixedKeyCache[i] = k
	return k
}

// FixedTestKey2048 returns a deterministic 2048-bit safe-prime key, the
// production-representative modulus size the hot-path benchmarks
// measure at. FOR TESTS AND BENCHMARKS ONLY.
func FixedTestKey2048() *PrivateKey {
	fixedKeyMu.Lock()
	defer fixedKeyMu.Unlock()
	const idx = 200
	if k, ok := fixedKeyCache[idx]; ok {
		return k
	}
	p := mustHex(fixedSafePrimes1024[0])
	q := mustHex(fixedSafePrimes1024[1])
	k, err := NewKeyFromSafePrimes(p, q)
	if err != nil {
		panic(fmt.Sprintf("paillier: fixed 2048-bit test key: %v", err))
	}
	fixedKeyCache[idx] = k
	return k
}

func mustHex(s string) *big.Int {
	v, ok := new(big.Int).SetString(s, 16)
	if !ok {
		panic("paillier: bad embedded prime constant")
	}
	return v
}
