// Wear leveling demo: composes Tetris Write with Start-Gap wear leveling
// (Qureshi et al., MICRO'09). The write scheme reduces how many cells a
// write programs; the leveler spreads where writes land. A hot line is
// hammered through the remapper and the physical wear distribution is
// compared against the unleveled run.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"tetriswrite/internal/cpu"
	"tetriswrite/internal/memctrl"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/sim"
	"tetriswrite/internal/tetris"
	"tetriswrite/internal/units"
	"tetriswrite/internal/wearlevel"
)

const (
	regionLines = 64
	totalWrites = 20000
	hotLine     = pcm.LineAddr(7)
)

func run(withLeveling bool) pcm.WearSummary {
	par := pcm.DefaultParams()
	eng := &sim.Engine{}
	dev := pcm.MustNewDevice(par)
	ctrl := memctrl.New(eng, dev, tetris.New, memctrl.Config{OpportunisticWrites: true})
	wear := pcm.NewWearTracker()

	var port cpu.MemPort = ctrl
	var reg *wearlevel.Region
	if withLeveling {
		var err error
		reg, err = wearlevel.NewRegion(0, regionLines, 100) // psi=100 as recommended
		if err != nil {
			log.Fatal(err)
		}
		port = wearlevel.NewRemapper(ctrl, reg, par.LineBytes, ctrl.Snoop)
	}

	rng := rand.New(rand.NewSource(1))
	data := make([]byte, par.LineBytes)
	n := 0
	var step func()
	step = func() {
		if n >= totalWrites {
			ctrl.WhenIdle(func() {})
			return
		}
		n++
		// 60% of writes hammer one hot line; the rest spread uniformly.
		addr := hotLine
		if rng.Intn(10) >= 6 {
			addr = pcm.LineAddr(rng.Intn(regionLines))
		}
		rng.Read(data[:8]) // mutate one data unit per write
		phys := addr
		if reg != nil {
			phys = reg.Translate(addr)
		}
		if port.SubmitWrite(addr, data, nil) {
			wear.Record(phys, 1)
		}
		eng.After(units.Duration(500+rng.Intn(500))*units.Nanosecond, step)
	}
	eng.At(0, step)
	eng.Run()
	return wear.Summary()
}

func main() {
	plain := run(false)
	leveled := run(true)

	fmt.Printf("hammering line %d with %d%% of %d writes over a %d-line region\n\n",
		hotLine, 60, totalWrites, regionLines)
	fmt.Printf("%-22s %-16s %-16s\n", "", "no leveling", "start-gap (psi=100)")
	fmt.Printf("%-22s %-16d %-16d\n", "hottest slot writes", plain.MaxLineWear, leveled.MaxLineWear)
	fmt.Printf("%-22s %-16.1f %-16.1f\n", "mean slot writes", plain.MeanLineWear, leveled.MeanLineWear)
	fmt.Printf("%-22s %-16.1f %-16.1f\n", "max/mean ratio",
		float64(plain.MaxLineWear)/plain.MeanLineWear,
		float64(leveled.MaxLineWear)/leveled.MeanLineWear)
	fmt.Printf("%-22s %-16d %-16d\n", "slots touched", plain.TouchedLines, leveled.TouchedLines)
	fmt.Println("\nLifetime scales with the inverse of the hottest slot's share: Start-Gap")
	fmt.Println("turns a single-line hotspot into near-uniform wear at ~1% write overhead.")
}
