package bgppol

// ReferenceExpandDomainPath is exported for the seed-world tests in
// package bgppol_test, which build worlds through scenario and so cannot
// sit in this package.
var ReferenceExpandDomainPath = referenceExpandDomainPath
