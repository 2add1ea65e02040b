package main

import "time"

// The machine this benchmark runs on changes speed by up to a quarter
// for seconds at a time (a shared host's clock and cache state), which
// would swamp any bound worth gating. Every gated timing is therefore
// taken beside a calibration kernel — fixed work owned by the benchmark,
// untouched by any change to the program — and reported at reference
// speed: wall time x calRefMS / the kernel's time just before and after.

// calRefMS is what the kernel takes on the reference box at its usual
// speed, so reported times there read as plain milliseconds.
const calRefMS = 10.0

// speedMeter scales consecutive timed stretches to reference speed:
// each stretch gets the mean of the calibrations on either side of it,
// and the calibration after one stretch is the one before the next.
type speedMeter struct{ last float64 }

func startSpeedMeter() *speedMeter { return &speedMeter{last: calibrate()} }

// factor closes the stretch that ran since the previous call (or since
// the meter started) and returns what to multiply its wall time by.
func (m *speedMeter) factor() float64 {
	now := calibrate()
	f := (m.last + now) / 2
	m.last = now
	return f
}

const calDim = 128

var (
	calMatrix = func() []float64 {
		m := make([]float64, calDim*calDim)
		for i := range m {
			m[i] = 1 / float64(1+i%97)
		}
		return m
	}()
	calVec  = make([]float64, calDim)
	calOut  = make([]float64, calDim)
	calSink float64
)

// calibrate runs the kernel — dense matrix-vector products over a
// cache-resident matrix, the same mix of multiply-adds and streamed
// reads the solver's kernels have — and returns the factor that turns
// wall time measured next to it into reference-speed time.
func calibrate() float64 {
	for i := range calVec {
		calVec[i] = 1
	}
	t0 := time.Now()
	for r := 0; r < calRounds; r++ {
		for i := 0; i < calDim; i++ {
			row := calMatrix[i*calDim : (i+1)*calDim]
			var s float64
			for j, v := range row {
				s += v * calVec[j]
			}
			calOut[i] = s
		}
		for i, v := range calOut {
			calVec[i] = v * 0.125
		}
	}
	calSink += calVec[0]
	return calRefMS / ms(time.Since(t0))
}

// calRounds sizes the kernel to about calRefMS on the reference box.
const calRounds = 1050
