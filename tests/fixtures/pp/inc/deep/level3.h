#ifndef LEVEL3_H
#define LEVEL3_H
#define LEVEL3_VALUE 3
int level3_decl; /* innermost of the three-deep chain */
#endif
