package pcm

// EnergyModel converts pulse counts into energy. Following the usual PCM
// first-order model, the energy of a pulse is proportional to its current
// times its duration, so with the default parameters one SET costs
// 1 x 430 ns = 430 units and one RESET costs 2 x 53 ns = 106 units: a SET
// is the *energy*-dominant pulse even though RESET draws more current.
type EnergyModel struct {
	SetEnergy   float64 // energy of one SET pulse, arbitrary units
	ResetEnergy float64 // energy of one RESET pulse, same units
}

// EnergyModelFor derives the first-order current-times-time energy model
// from device parameters, in units of (SET current) x nanoseconds.
func EnergyModelFor(p Params) EnergyModel {
	return EnergyModel{
		SetEnergy:   float64(p.CurrentSet) * p.TSet.Nanoseconds(),
		ResetEnergy: float64(p.CurrentReset) * p.TReset.Nanoseconds(),
	}
}

// WriteEnergy returns the energy of a write that drove the given pulses.
func (m EnergyModel) WriteEnergy(sets, resets int) float64 {
	return float64(sets)*m.SetEnergy + float64(resets)*m.ResetEnergy
}
