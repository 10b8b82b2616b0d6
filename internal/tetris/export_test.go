package tetris

import "tetriswrite/internal/pcm"

// OrderConfig is orderConfig for the external plan-stream golden test.
type OrderConfig struct {
	Name string
	Par  pcm.Params
	Opt  Options
}

// OrderConfigs returns orderConfigs for the external test package.
func OrderConfigs() []OrderConfig {
	var out []OrderConfig
	for _, c := range orderConfigs() {
		out = append(out, OrderConfig{Name: c.name, Par: c.par, Opt: c.opt})
	}
	return out
}
