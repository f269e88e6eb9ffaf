package predict

import (
	"math"

	"cellqos/internal/topology"
)

// DayClass labels a calendar-pattern class. The paper keeps separate
// quadruplet sets for weekdays and for weekends/holidays, whose mobility
// patterns differ (§3.1).
type DayClass int

const (
	// Weekday is the default Monday–Friday pattern (period T_day).
	Weekday DayClass = iota
	// Weekend covers Saturdays, Sundays and holidays (period T_week).
	Weekend
	numDayClasses
)

// Calendar classifies simulation times into day classes. Day 0 is the
// simulation epoch.
type Calendar interface {
	ClassAt(t float64) DayClass
}

// WeekdayOnly is a Calendar for runs that never leave the weekday
// pattern (all of the paper's experiments).
type WeekdayOnly struct{}

// ClassAt implements Calendar.
func (WeekdayOnly) ClassAt(float64) DayClass { return Weekday }

// WeekCalendar maps a repeating 7-day week: days FirstWeekendDay and
// FirstWeekendDay+1 (mod 7) are Weekend.
type WeekCalendar struct {
	// FirstWeekendDay is the zero-based day-of-week index, counted from
	// the simulation epoch, of the first weekend day (e.g. 5 when the
	// epoch is a Monday).
	FirstWeekendDay int
}

// ClassAt implements Calendar.
func (c WeekCalendar) ClassAt(t float64) DayClass {
	if t < 0 {
		t = 0
	}
	day := int(math.Floor(t/86400)) % 7
	if day == c.FirstWeekendDay%7 || day == (c.FirstWeekendDay+1)%7 {
		return Weekend
	}
	return Weekday
}

// PatternSet routes quadruplets and queries to per-day-class estimators:
// weekday observations never pollute weekend predictions and vice versa.
type PatternSet struct {
	cal  Calendar
	ests [numDayClasses]*Estimator
}

// NewPatternSet builds a PatternSet. The weekend estimator uses the same
// config with the period stretched to one week (T_week), as §3.1
// prescribes. A nil calendar defaults to WeekdayOnly.
func NewPatternSet(cfg Config, cal Calendar) *PatternSet {
	if cal == nil {
		cal = WeekdayOnly{}
	}
	weekendCfg := cfg
	if !math.IsInf(cfg.Tint, 1) {
		weekendCfg.Period = cfg.Period * 7
	}
	ps := &PatternSet{cal: cal}
	ps.ests[Weekday] = New(cfg)
	ps.ests[Weekend] = New(weekendCfg)
	return ps
}

// Estimator returns the estimator in force at time t.
func (ps *PatternSet) Estimator(t float64) *Estimator {
	return ps.ests[ps.cal.ClassAt(t)]
}

// ByClass returns the estimator for an explicit day class.
func (ps *PatternSet) ByClass(c DayClass) *Estimator { return ps.ests[c] }

// Classes returns the number of day classes the set maintains — the
// count a serializer framing one stream per class must write.
func (ps *PatternSet) Classes() int { return int(numDayClasses) }

// LastEvent returns the newest event time recorded across all classes,
// zero when every estimator is empty.
func (ps *PatternSet) LastEvent() float64 {
	last := 0.0
	for _, e := range ps.ests {
		if le := e.LastEvent(); le > last {
			last = le
		}
	}
	return last
}

// Record routes a quadruplet to the estimator of its event time's
// class.
func (ps *PatternSet) Record(q Quadruplet) {
	ps.Estimator(q.Event).Record(q)
}

// HandOffProb evaluates Eq. 4 against the estimator in force at t0.
func (ps *PatternSet) HandOffProb(t0 float64, prev topology.LocalIndex, extSoj, test float64, next topology.LocalIndex) float64 {
	return ps.Estimator(t0).HandOffProb(t0, prev, extSoj, test, next)
}

// MaxSojourn queries the estimator in force at t0.
func (ps *PatternSet) MaxSojourn(t0 float64) float64 {
	return ps.Estimator(t0).MaxSojourn(t0)
}

// SweepAt applies cache eviction to every pattern's estimator.
func (ps *PatternSet) SweepAt(t float64) {
	for _, e := range ps.ests {
		e.SweepAt(t)
	}
}
