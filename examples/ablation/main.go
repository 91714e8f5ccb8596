// Ablation: the paper's Fig 10 question — how much of MTO's gain comes from
// edge removal vs edge replacement? On latent-space graphs, each variant is
// walked to full coverage, its overlay extracted, and the theoretical (SLEM)
// mixing time compared against the original graph and the Theorem 6 bound.
//
//	go run ./examples/ablation
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"rewire/internal/exp"
)

func main() {
	res, err := exp.Fig10(context.Background(), exp.Fig10Config{
		Sizes:         []int{50, 60, 70, 80},
		Trials:        5,
		CoverageSteps: 100000,
	}, 2013)
	if err != nil {
		log.Fatal(err)
	}
	res.Render(os.Stdout)
	fmt.Println("\n(mixing time = 1/log(1/SLEM); theory = original shrunk by the")
	fmt.Println(" Theorem 6 bound squared, since mixing scales as 1/Φ² by eq. 6)")
}
