// Antagonist demonstrates the adversarial isolation property: vpr (a
// latency-sensitive thread) shares the memory system with each of the
// antagonist agents — a streaming accelerator-style core, a row-buffer
// thrasher, a bank-conflict attacker, a bus hog, and a diurnal bursty
// agent — under equal bandwidth shares. Against the paper's private-φ
// baseline (vpr alone on memory time scaled by two), FQ-VFTF holds the
// victim's slowdown at or under 1.0 no matter the attacker, while
// FR-FCFS hands the attacker a 1.1x–2.1x victim slowdown. The delay
// attribution matrix shows where the stolen cycles went.
package main

import (
	"fmt"
	"log"

	fqms "repro"
)

func main() {
	// Private-φ baseline: the victim alone on its half of the memory
	// system (DDR2 timing scaled by two).
	base, err := fqms.Run(fqms.SystemConfig{
		Workload:    []string{"vpr"},
		MemoryScale: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	baseIPC := base.Threads[0].IPC
	fmt.Printf("victim vpr on the private-φ baseline: IPC %.3f\n\n", baseIPC)
	fmt.Printf("%-11s %14s %14s\n", "attacker", "FQ-VFTF slow", "FR-FCFS slow")

	type cell struct {
		attacker string
		stolen   [3]int64 // victim wait cycles charged to [self, attacker, none] under FR-FCFS
	}
	var cells []cell
	for _, attacker := range fqms.AntagonistNames() {
		var slow [2]float64
		var stolen [3]int64
		for i, sched := range []fqms.Scheduler{fqms.FQVFTF, fqms.FRFCFS} {
			sys, err := fqms.NewSystem(fqms.SystemConfig{
				Workload:     []string{"vpr", attacker},
				Scheduler:    sched,
				Interference: true,
			})
			if err != nil {
				log.Fatal(err)
			}
			if err := sys.RunTo(50_000, 450_000, 0, nil); err != nil {
				log.Fatal(err)
			}
			slow[i] = baseIPC / sys.Results().Threads[0].IPC
			if sched == fqms.FRFCFS {
				snap, ok := sys.Interference()
				if !ok {
					log.Fatal("interference attribution not enabled")
				}
				copy(stolen[:], snap.Matrix[0])
			}
		}
		fmt.Printf("%-11s %13.2fx %13.2fx\n", attacker, slow[0], slow[1])
		cells = append(cells, cell{attacker, stolen})
	}

	fmt.Printf("\nwho delayed the victim under FR-FCFS (wait cycles by aggressor):\n")
	fmt.Printf("%-11s %12s %12s %12s %10s\n", "attacker", "self", "attacker", "no-aggr", "stolen")
	for _, c := range cells {
		total := c.stolen[0] + c.stolen[1] + c.stolen[2]
		fmt.Printf("%-11s %12d %12d %12d %9.0f%%\n",
			c.attacker, c.stolen[0], c.stolen[1], c.stolen[2],
			100*float64(c.stolen[1])/float64(total))
	}
	fmt.Printf("\nFQ-VFTF keeps the victim at or above its private-φ performance\n")
	fmt.Printf("(slowdown <= 1.0); FR-FCFS lets every attacker through.\n")
}
