package main

import (
	"fmt"
	"os"
)

// hostNoise reproduces the two measurements a run's timing rests on. A
// fixed ALU spin loop costs the same CPU time every time, and whatever
// more it costs in wall time is what the hypervisor stole: the
// quiet-segment rule. The handoff reading next to it moves by half
// without any steal when the host changes phase, and the served
// workloads move with it: the host-speed unit.
func hostNoise() {
	probe, err := newHandoffProbe()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer probe.close()
	fmt.Println("spin wall_s cpu_s steal_frac handoff_us")
	for i := 0; i < 20; i++ {
		c0 := readClock()
		x := uint64(i)
		for j := 0; j < 400_000_000; j++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		iv := since(c0, readClock())
		h, err := probe.readings(setupReadings)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		fmt.Printf("%4d %.3f %.3f %.3f %.2f (%d)\n", i, iv.wall.Seconds(), iv.cpu.Seconds(), iv.steal, h, x&1)
	}
}
