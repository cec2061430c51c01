package trace

// AttackKinds lets the external tests range over every adversarial kernel.
var AttackKinds = attackKinds
