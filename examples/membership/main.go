// Membership: private set membership through pure field arithmetic. A
// compliance service holds a confidential watchlist; a bank holds a
// customer identifier. The committee evaluates
//
//	1 − Π_i (x − s_i)^(p−1)
//
// so the bank learns only the yes/no bit — not the list — and the service
// never sees the identifier. Equality tests come from Fermat's little
// theorem (x^(p−1) is 0 at 0 and 1 elsewhere), so the whole computation is
// ~120 multiplications per list entry at depth ~61: a deep, narrow
// schedule with one committee per multiplication layer.
package main

import (
	"fmt"
	"log"

	"yosompc"
)

func main() {
	const watchlistSize = 3
	circ, err := yosompc.MembershipIndicator(watchlistSize)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("membership circuit: %d multiplications, depth %d\n", circ.NumMul(), circ.Depth())

	cfg := yosompc.Config{N: 6, T: 1, K: 1, Backend: yosompc.Sim}
	watchlist := yosompc.Values(555001, 555002, 555003)

	for _, query := range []uint64{555002, 700000} {
		res, err := yosompc.Run(cfg, circ, map[int][]yosompc.Value{
			0: yosompc.Values(query), // bank's customer id
			1: watchlist,             // compliance service's list
		})
		if err != nil {
			log.Fatal(err)
		}
		verdict := "clear"
		if res.Outputs[0][0] == yosompc.NewValue(1) {
			verdict = "ON WATCHLIST"
		}
		fmt.Printf("query %d → %s (%d rounds, online: %.1f KiB)\n",
			query, verdict, res.Rounds, float64(res.Report.ByPhase["online"])/1024)
	}
}
