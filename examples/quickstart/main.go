// Quickstart: plan one cache-line write under every scheme and inspect
// the resulting pulse schedules — the smallest possible use of the
// library.
package main

import (
	"fmt"
	"log"

	"tetriswrite"
)

func main() {
	par := tetriswrite.DefaultParams()

	// A 64-byte cache line with a realistic sparse update: the stored
	// data, and a new version with a handful of changed bits (a counter
	// bumped, a pointer rewritten).
	old := make([]byte, par.LineBytes)
	copy(old, []byte("the quick brown fox jumps over the lazy dog, twice over again!!"))
	new := append([]byte(nil), old...)
	new[8] ^= 0x01  // one bit
	new[24] ^= 0x13 // three bits
	new[52] ^= 0x80 // one bit

	fmt.Printf("planning a %d-byte line write, %d data units of %d bytes\n\n",
		par.LineBytes, par.DataUnits(), par.WriteUnitBytes())
	fmt.Printf("%-14s %-12s %-12s %-10s %-8s %s\n",
		"scheme", "service", "write-phase", "units", "pulses", "notes")

	for _, name := range tetriswrite.SchemeNames() {
		s, err := tetriswrite.NewScheme(name, par)
		if err != nil {
			log.Fatal(err)
		}
		plan := s.PlanWrite(0x2A, old, new)
		note := ""
		if plan.Read > 0 {
			note = "read-before-write"
		}
		if plan.Analysis > 0 {
			note += " + analysis"
		}
		fmt.Printf("%-14s %-12v %-12v %-10.3f %2d+%-5d %s\n",
			s.Name(), plan.ServiceTime(), plan.Write, plan.WriteUnits(), plan.Sets, plan.Resets, note)
	}

	fmt.Println("\nTetris Write packs the five changed bits into a single write unit;")
	fmt.Println("the static schemes pay their worst-case slot reservations regardless.")
}
