double a[48];
double b[48];
double acc;

double axpy(double alpha, double x, double y) {
  return alpha * x + y;
}

double dot3(int i) {
  double s = 0.0;
  int k;
  for (k = 0; k < 3; k++) {
    s = s + a[i + k] * b[i + k];
  }
  return s;
}

void main() {
  int i;
  int t;
  for (i = 0; i < 48; i++) {
    a[i] = 0.25 * i;
    b[i] = 1.0 - 0.125 * i;
  }
  for (t = 0; t < 3; t++) {
    for (i = 0; i < 45; i++) {
      b[i] = axpy(0.5, a[i], b[i]);
      acc = acc + dot3(i);
    }
  }
  print(acc);
  print(b[7]);
}
