package core

import (
	"fmt"
	"testing"

	"runaheadsim/internal/memsys"
	"runaheadsim/internal/workload"
)

func TestDebugOmnetRA(t *testing.T) {
	p := workload.MustLoad("omnetpp")
	c := New(testConfig(ModeTraditional), p)
	c.Run(30000)
	type k struct {
		pc       uint64
		poisoned bool
	}
	counts := map[k]int{}
	lvl := map[memsys.Level]int{}
	seen := map[uint64]bool{} // runahead loads already counted, by seq
	for i := 0; i < 60000; i++ {
		c.Cycle()
		if !c.ra.active {
			continue
		}
		for j := 0; j < c.rob.size(); j++ {
			d := c.rob.at(j)
			if d.U.Op.IsLoad() && d.Executed && d.Runahead && !seen[d.Seq] {
				seen[d.Seq] = true
				counts[k{d.PC, d.Poisoned}]++
				if !d.Poisoned {
					lvl[d.MemLevel]++
				}
			}
		}
	}
	for key, v := range counts {
		if v > 30 {
			fmt.Printf("LOAD pc=%#x poisoned=%v count=%d\n", key.pc, key.poisoned, v)
		}
	}
	fmt.Printf("levels: %v\n", lvl)
	st := c.st
	fmt.Printf("raUops=%d raLoads=%d poisoned=%d mispred=%d branches=%d intervals=%d\n",
		st.RunaheadUops, st.RunaheadLoads, st.PoisonedUops, st.Mispredicts, st.Branches, st.RunaheadIntervals)
}
