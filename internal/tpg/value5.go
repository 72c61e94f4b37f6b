// Package tpg generates test vectors: weighted-random patterns and a PODEM
// deterministic test pattern generator with event-driven five-valued
// implication. The paper seeds its bit-lists with deterministic vectors from
// Hamzaoglu–Patel plus 6,000–10,000 random vectors; BuildVectors plays that
// role here.
package tpg

import "dedc/internal/circuit"

// v3 is a ternary logic value.
type v3 uint8

const (
	f3 v3 = 0 // false
	t3 v3 = 1 // true
	x3 v3 = 2 // unknown
)

func not3(a v3) v3 {
	switch a {
	case f3:
		return t3
	case t3:
		return f3
	}
	return x3
}

// eval3 evaluates a gate of type t over the ternary values vals[fanin[i]].
// When pin >= 0, that pin reads sv instead: the faulty machine of a branch
// fault sees the stuck value on one pin only.
func eval3(t circuit.GateType, fanin []circuit.Line, vals []v3, pin int, sv v3) v3 {
	switch t {
	case circuit.Const0:
		return f3
	case circuit.Const1:
		return t3
	case circuit.Buf, circuit.DFF, circuit.Not:
		v := vals[fanin[0]]
		if pin == 0 {
			v = sv
		}
		if t == circuit.Not {
			return not3(v)
		}
		return v
	case circuit.And, circuit.Nand, circuit.Or, circuit.Nor:
		// Any input at the controlling value decides the output; otherwise
		// one unknown input leaves it unknown.
		ctrl := f3
		if t == circuit.Or || t == circuit.Nor {
			ctrl = t3
		}
		acc := not3(ctrl)
		for i, f := range fanin {
			v := vals[f]
			if i == pin {
				v = sv
			}
			if v == ctrl {
				acc = ctrl
				break
			}
			if v == x3 {
				acc = x3
			}
		}
		if t == circuit.Nand || t == circuit.Nor {
			acc = not3(acc)
		}
		return acc
	case circuit.Xor, circuit.Xnor:
		acc := f3
		if t == circuit.Xnor {
			acc = t3
		}
		for i, f := range fanin {
			v := vals[f]
			if i == pin {
				v = sv
			}
			if v == x3 {
				return x3
			}
			acc ^= v
		}
		return acc
	}
	panic("tpg: cannot evaluate " + t.String())
}
