package pipeline

// ObserverOf returns the observer attached to s, so the external tests can
// check that a new Sim starts with its event hooks off.
func ObserverOf(s *Sim) Observer { return s.obs }
